#include "poly/matrix_ntt.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "obs/obs.h"

namespace neo {

MatrixNtt::MatrixNtt(const NttTables &tables, size_t radix)
    : tables_(tables), radix_(radix)
{
    NEO_CHECK(is_pow2(radix) && radix >= 2, "radix must be a power of two");
    NEO_CHECK(radix <= tables.n(), "radix exceeds transform length");
    const int log_radix = log2_exact(radix);
    w_fwd_.reserve(log_radix + 1);
    w_inv_.reserve(log_radix + 1);
    w_fwd_.emplace_back();
    w_inv_.emplace_back();
    const size_t nfull = tables_.n();
    for (int lg = 1; lg <= log_radix; ++lg) {
        const size_t len = 1ULL << lg;
        const size_t step = nfull / len;
        std::vector<u64> wf(len * len), wi(len * len);
        for (size_t c = 0; c < len; ++c) {
            for (size_t k = 0; k < len; ++k) {
                size_t e = (c * k % len) * step;
                wf[c * len + k] = tables_.omega_pow(e);
                wi[c * len + k] = tables_.omega_inv_pow(e);
            }
        }
        w_fwd_.emplace_back(std::move(wf));
        w_inv_.emplace_back(std::move(wi));
    }
}

const StaticOperand &
MatrixNtt::twiddle_matrix(size_t len, bool inverse) const
{
    const int lg = log2_exact(len);
    return inverse ? w_inv_[lg] : w_fwd_[lg];
}

void
MatrixNtt::cyclic_batch(u64 *a, size_t rows, size_t len, bool inverse,
                        const ModMatMulFn &mm, TopTwist top) const
{
    const Modulus &q = tables_.modulus();
    NEO_ASSERT(top == TopTwist::none || (rows == 1 && len > radix_),
               "fused twists apply to the top-level call only");
    Workspace::Frame frame;
    if (len <= radix_) {
        // Base case: one (rows × len) · (len × len) matrix product.
        const auto &w = twiddle_matrix(len, inverse);
        u64 *out = frame.alloc<u64>(rows * len);
        mm(a, w, out, rows, len, len, q);
        std::copy(out, out + rows * len, a);
        return;
    }

    const size_t n1 = radix_;
    const size_t n2 = len / n1;
    const size_t step = tables_.n() / len; // ω_len = ω_full^step
    const size_t emask = tables_.n() - 1;  // exponents of ω_full mod n
    const u64 qv = q.value();
    const auto &w1 = twiddle_matrix(n1, inverse);
    // Every row of the batch is an independent length-len transform;
    // each pass below is a data-parallel loop over (row, column)
    // units of its matrices, so any chunking gives the same bytes.
    const size_t units = rows * n2;
    const size_t grain = row_chunk_grain(units, n1);

    // Step 1: gather A[row][r][c] = x_row[r + n1*c] for all rows — one
    // rows·n1 × n2 matrix. At the fused top level the ψ pre-twist
    // rides in the gather: x[i] is multiplied by ψ^i exactly as the
    // standalone pass would, just at its new address.
    u64 *at = frame.alloc<u64>(rows * len);
    parallel_for(
        0, units,
        [&](size_t ub, size_t ue) {
            for (size_t u = ub; u < ue; ++u) {
                const size_t row = u / n2, c = u % n2;
                const u64 *x = a + row * len + n1 * c;
                u64 *dst = at + row * len + c;
                if (top == TopTwist::psi_fwd) {
                    for (size_t r = 0; r < n1; ++r) {
                        const size_t i = n1 * c + r;
                        dst[r * n2] =
                            mul_shoup(x[r], tables_.psi_pow(i),
                                      tables_.psi_pow_shoup(i), qv);
                    }
                } else {
                    for (size_t r = 0; r < n1; ++r)
                        dst[r * n2] = x[r];
                }
            }
        },
        grain);

    // Step 2: length-n2 transforms on all rows·n1 rows — one recursion,
    // so each radix stage is a single GEMM however many rows it has.
    cyclic_batch(at, rows * n1, n2, inverse, mm);

    // Step 3: twisting factors ω_len^{r·k2}, fused with the transpose
    // T[row][k2][r] = A[row][r][k2] · ω_len^{r·k2} that makes the left
    // twiddle product a right one below.
    u64 *tw = frame.alloc<u64>(rows * len);
    const u64 *wp = tables_.omega_table(inverse);
    const u64 *wsp = tables_.omega_shoup_table(inverse);
    parallel_for(
        0, units,
        [&](size_t ub, size_t ue) {
            for (size_t u = ub; u < ue; ++u) {
                const size_t row = u / n2, k2 = u % n2;
                const u64 *src = at + row * len + k2;
                u64 *dst = tw + u * n1;
                dst[0] = src[0];
                // e = r·k2 (mod len) in units of ω_full, stepped per r.
                const size_t de = k2 * step;
                size_t e = 0;
                for (size_t r = 1; r < n1; ++r) {
                    e = (e + de) & emask;
                    dst[r] = mul_shoup(src[r * n2], wp[e], wsp[e], qv);
                }
            }
        },
        grain);

    // Step 4: the n1×n1 twiddle matrix W is symmetric, so
    // W·A = (Aᵀ·W)ᵀ: one (rows·n2 × n1) · (n1 × n1) GEMM with W as the
    // static right operand. `at` is dead after step 3 and takes the
    // product.
    u64 *out = at;
    mm(tw, w1, out, units, n1, n1, q);

    // Rows land in natural order: X_row[k1·n2 + k2] = out[row][k2][k1].
    // At the fused inverse top level the n⁻¹·ψ⁻¹ scaling rides in the
    // writeback: the same two modular products per element as the
    // standalone pass.
    parallel_for(
        0, units,
        [&](size_t ub, size_t ue) {
            for (size_t u = ub; u < ue; ++u) {
                const size_t row = u / n2, k2 = u % n2;
                const u64 *src = out + u * n1;
                u64 *x = a + row * len + k2;
                if (top == TopTwist::psi_inv) {
                    for (size_t k1 = 0; k1 < n1; ++k1) {
                        const size_t k = k1 * n2 + k2;
                        const u64 v = mul_shoup(src[k1], tables_.n_inv(),
                                                tables_.n_inv_shoup(), qv);
                        x[k1 * n2] =
                            mul_shoup(v, tables_.psi_inv_pow(k),
                                      tables_.psi_inv_pow_shoup(k), qv);
                    }
                } else {
                    for (size_t k1 = 0; k1 < n1; ++k1)
                        x[k1 * n2] = src[k1];
                }
            }
        },
        grain);
}

namespace {

/// Fusion accounting: one tick per standalone twist pass executed
/// ("pass.*") or folded into a neighbour ("fuse.*") — the counters
/// tests/fusion_test.cpp uses to prove fused runs issue fewer
/// element-wise kernels.
void
twist_count(const char *name)
{
    if (auto *r = obs::current())
        r->add(name);
}

} // namespace

void
MatrixNtt::forward(u64 *a, const ModMatMulFn &mm, bool fuse) const
{
    obs::Span span("mntt_fwd", obs::cat::ntt);
    const size_t n = tables_.n();
    const u64 qv = tables_.modulus().value();
    if (fuse && n > radix_) {
        twist_count("fuse.ntt_twist");
        cyclic_batch(a, 1, n, false, mm, TopTwist::psi_fwd);
        return;
    }
    {
        obs::Span twist("ntt_twist", obs::cat::stage);
        twist_count("pass.ntt_twist");
        parallel_for(
            0, n,
            [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i)
                    a[i] = mul_shoup(a[i], tables_.psi_pow(i),
                                     tables_.psi_pow_shoup(i), qv);
            },
            4096);
    }
    cyclic_batch(a, 1, n, false, mm);
}

void
MatrixNtt::inverse(u64 *a, const ModMatMulFn &mm, bool fuse) const
{
    obs::Span span("mntt_inv", obs::cat::ntt);
    const size_t n = tables_.n();
    const u64 qv = tables_.modulus().value();
    if (fuse && n > radix_) {
        twist_count("fuse.ntt_twist");
        cyclic_batch(a, 1, n, true, mm, TopTwist::psi_inv);
        return;
    }
    cyclic_batch(a, 1, n, true, mm);
    obs::Span twist("ntt_twist", obs::cat::stage);
    twist_count("pass.ntt_twist");
    parallel_for(
        0, n,
        [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
                u64 x = mul_shoup(a[i], tables_.n_inv(),
                                  tables_.n_inv_shoup(), qv);
                a[i] = mul_shoup(x, tables_.psi_inv_pow(i),
                                 tables_.psi_inv_pow_shoup(i), qv);
            }
        },
        4096);
}

void
MatrixNtt::accumulate(Complexity &c, size_t rows, size_t len, size_t radix)
{
    if (len <= radix) {
        c.matmul_macs += rows * len * len;
        c.matmul_stages += 1;
        return;
    }
    const size_t n1 = radix;
    const size_t n2 = len / n1;
    // Gather + writeback.
    c.reorder_elems += rows * 2 * len;
    // Recursive row transforms (batched across rows of all calls).
    accumulate(c, rows * n1, n2, radix);
    // Twists.
    c.twist_muls += rows * (n1 - 1) * n2;
    // Twiddle matmul: one GEMM over all rows of the stage.
    c.matmul_macs += rows * n1 * n2 * n1;
    c.matmul_stages += 1;
}

MatrixNtt::Complexity
MatrixNtt::complexity() const
{
    return complexity_for(tables_.n(), radix_);
}

MatrixNtt::Complexity
MatrixNtt::complexity_for(size_t n, size_t radix)
{
    Complexity c;
    accumulate(c, 1, n, radix);
    // ψ twist at entry.
    c.twist_muls += n;
    return c;
}

} // namespace neo
