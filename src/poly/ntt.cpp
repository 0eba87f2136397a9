#include "poly/ntt.h"

#include "common/check.h"
#include "common/math_util.h"
#include "common/thread_pool.h"
#include "obs/obs.h"
#include "rns/primes.h"

namespace neo {

NttTables::NttTables(size_t n, const Modulus &q) : n_(n), q_(q)
{
    NEO_CHECK(is_pow2(n), "ring degree must be a power of two");
    NEO_CHECK((q.value() - 1) % (2 * n) == 0, "q != 1 mod 2n");
    psi_ = find_primitive_root(q.value(), 2 * n);
    const u64 qv = q.value();
    const u64 psi_inv = q.inv(psi_);
    const u64 w = q.mul(psi_, psi_);
    const u64 w_inv = q.inv(w);
    n_inv_ = q.inv(q.reduce(n));
    n_inv_shoup_ = shoup_precompute(n_inv_, qv);

    auto fill = [&](std::vector<u64> &pow, std::vector<u64> &shoup, u64 base) {
        pow.resize(n);
        shoup.resize(n);
        u64 cur = 1;
        for (size_t i = 0; i < n; ++i) {
            pow[i] = cur;
            shoup[i] = shoup_precompute(cur, qv);
            cur = q_.mul(cur, base);
        }
    };
    fill(psi_pow_, psi_pow_shoup_, psi_);
    fill(psi_inv_pow_, psi_inv_pow_shoup_, psi_inv);
    fill(w_pow_, w_pow_shoup_, w);
    fill(w_inv_pow_, w_inv_pow_shoup_, w_inv);

    const int logn = log2_exact(n);
    bitrev_.resize(n);
    for (size_t i = 0; i < n; ++i)
        bitrev_[i] = static_cast<u32>(reverse_bits(i, logn));
}

namespace {

/// Minimum transform size before a stage is worth fanning out.
constexpr size_t kParallelNttThreshold = 1 << 12;

/// Iterative Cooley-Tukey over precomputed ω^i tables. Large
/// transforms run each butterfly stage through the thread pool (the
/// stage's butterflies touch disjoint index pairs, so any execution
/// order produces the sequential result bit-for-bit; parallel_for is
/// the inter-stage barrier).
void
cyclic_transform(u64 *a, size_t n, const Modulus &q,
                 const std::vector<u64> &w_pow,
                 const std::vector<u64> &w_shoup,
                 const std::vector<u32> &bitrev)
{
    const u64 qv = q.value();
    const bool fan_out =
        n >= kParallelNttThreshold && ThreadPool::parallel_active();
    // Bit-reversal: iteration i swaps (i, bitrev[i]) only when
    // i < bitrev[i], so each pair is touched by exactly one iteration.
    if (fan_out) {
        parallel_for(
            0, n,
            [&](size_t b, size_t e) {
                for (size_t i = b; i < e; ++i) {
                    u32 j = bitrev[i];
                    if (i < j)
                        std::swap(a[i], a[j]);
                }
            },
            4096);
    } else {
        for (size_t i = 0; i < n; ++i) {
            u32 j = bitrev[i];
            if (i < j)
                std::swap(a[i], a[j]);
        }
    }
    for (size_t len = 2; len <= n; len <<= 1) {
        const size_t half = len >> 1;
        const size_t step = n / len;
        if (fan_out) {
            // Flatten the (block, j) butterfly grid of this stage.
            parallel_for(
                0, n >> 1,
                [&](size_t b, size_t e) {
                    for (size_t idx = b; idx < e; ++idx) {
                        const size_t blk = idx / half;
                        const size_t j = idx - blk * half;
                        const size_t start = blk * len;
                        const size_t tw = step * j;
                        u64 u = a[start + j];
                        u64 v = mul_shoup(a[start + j + half], w_pow[tw],
                                          w_shoup[tw], qv);
                        a[start + j] = add_mod(u, v, qv);
                        a[start + j + half] = sub_mod(u, v, qv);
                    }
                },
                2048);
            continue;
        }
        for (size_t start = 0; start < n; start += len) {
            for (size_t j = 0; j < half; ++j) {
                const size_t tw = step * j;
                u64 u = a[start + j];
                u64 v = mul_shoup(a[start + j + half], w_pow[tw],
                                  w_shoup[tw], qv);
                a[start + j] = add_mod(u, v, qv);
                a[start + j + half] = sub_mod(u, v, qv);
            }
        }
    }
}

} // namespace

void
NttTables::forward_cyclic(u64 *a) const
{
    cyclic_transform(a, n_, q_, w_pow_, w_pow_shoup_, bitrev_);
}

void
NttTables::inverse_cyclic_unscaled(u64 *a) const
{
    cyclic_transform(a, n_, q_, w_inv_pow_, w_inv_pow_shoup_, bitrev_);
}

void
NttTables::forward(u64 *a) const
{
    obs::Span span("ntt_r2_fwd", obs::cat::ntt);
    const u64 qv = q_.value();
    parallel_for(
        0, n_,
        [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i)
                a[i] = mul_shoup(a[i], psi_pow_[i], psi_pow_shoup_[i], qv);
        },
        4096);
    forward_cyclic(a);
}

void
NttTables::inverse(u64 *a) const
{
    obs::Span span("ntt_r2_inv", obs::cat::ntt);
    const u64 qv = q_.value();
    inverse_cyclic_unscaled(a);
    parallel_for(
        0, n_,
        [&](size_t b, size_t e) {
            for (size_t i = b; i < e; ++i) {
                u64 x = mul_shoup(a[i], n_inv_, n_inv_shoup_, qv);
                a[i] = mul_shoup(x, psi_inv_pow_[i], psi_inv_pow_shoup_[i],
                                 qv);
            }
        },
        4096);
}

std::vector<u64>
negacyclic_convolve(const std::vector<u64> &a, const std::vector<u64> &b,
                    const Modulus &q)
{
    const size_t n = a.size();
    NEO_CHECK(b.size() == n, "size mismatch");
    std::vector<u64> c(n, 0);
    for (size_t i = 0; i < n; ++i) {
        if (a[i] == 0)
            continue;
        for (size_t j = 0; j < n; ++j) {
            u64 p = q.mul(a[i], b[j]);
            size_t k = i + j;
            if (k < n) {
                c[k] = q.add(c[k], p);
            } else {
                c[k - n] = q.sub(c[k - n], p);
            }
        }
    }
    return c;
}

} // namespace neo
