#include "poly/mat_mul.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "obs/obs.h"

namespace neo {

void
scalar_mod_matmul(const u64 *a, OperandRef b_op, u64 *c, size_t m, size_t n,
                  size_t k, const Modulus &q)
{
    const u64 *b = b_op.data;
    obs::Span span("scalar_gemm", obs::cat::gemm);
    if (auto *r = obs::current())
        r->add_gemm(m, n, k);
    // Row tiles of C are independent; the k-accumulation (and its
    // fold points) stays inside one tile, so results are identical
    // for any thread count. Columns are register-tiled in groups of
    // kNR with the same per-element t order and fold cadence as the
    // naive loop, so the tiling is bit-transparent too.
    constexpr size_t kNR = 4;
    parallel_for(
        0, m,
        [&](size_t rb, size_t re) {
            for (size_t i = rb; i < re; ++i) {
                size_t j = 0;
                for (; j + kNR <= n; j += kNR) {
                    u128 acc[kNR] = {};
                    // Each product is < 2^126 (q < 2^63); folding
                    // every other iteration keeps the accumulator
                    // below 2^128.
                    for (size_t t = 0; t < k; ++t) {
                        const u128 av = a[i * k + t];
                        for (size_t jj = 0; jj < kNR; ++jj)
                            acc[jj] += av * b[t * n + j + jj];
                        if (t & 1)
                            for (size_t jj = 0; jj < kNR; ++jj)
                                acc[jj] = q.reduce128(acc[jj]);
                    }
                    for (size_t jj = 0; jj < kNR; ++jj)
                        c[i * n + j + jj] = q.reduce128(acc[jj]);
                }
                for (; j < n; ++j) {
                    u128 acc = 0;
                    for (size_t t = 0; t < k; ++t) {
                        acc += static_cast<u128>(a[i * k + t]) *
                               b[t * n + j];
                        if (t & 1)
                            acc = q.reduce128(acc);
                    }
                    c[i * n + j] = q.reduce128(acc);
                }
            }
        },
        row_chunk_grain(m, n * k));
}

const ModMatMulFn &
default_mat_mul()
{
    static const ModMatMulFn fn = scalar_mod_matmul;
    return fn;
}

} // namespace neo
