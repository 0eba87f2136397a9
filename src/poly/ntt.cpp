#include "poly/ntt.h"

#include <algorithm>
#include <type_traits>

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
    inv_last_ = q.mul(psi_inv_pow_[n / 2], n_inv_);
    inv_last_shoup_ = shoup_precompute(inv_last_, qv);
}

namespace {

/// Minimum transform size before a stage is worth fanning out.
constexpr size_t kParallelNttThreshold = 1 << 12;

/*
 * Butterfly groups: len butterflies pairing x[j] with y[j] under one
 * twiddle w (Shoup companion ws). Lazy (q < 2^62, so 4q fits a word)
 * is Harvey's: forward values stay in [0, 4q) and inverse values in
 * [0, 2q), with one conditional subtraction per butterfly. Otherwise
 * every value stays in [0, q). Either way each result is congruent to
 * the exact butterfly, so the reduced outputs are identical. q is
 * passed by value so it stays in a register across the stores.
 */

/// Cooley–Tukey: (x, y) ← (x + w·y, x − w·y).
template <bool Lazy>
void
ct_group(u64 *x, u64 *y, size_t len, u64 w, u64 ws, u64 q)
{
    const u64 two_q = 2 * q;
    for (size_t j = 0; j < len; ++j) {
        if constexpr (Lazy) {
            const u64 u = x[j] >= two_q ? x[j] - two_q : x[j];
            const u64 v = mul_shoup_lazy(y[j], w, ws, q);
            x[j] = u + v;
            y[j] = u - v + two_q;
        } else {
            const u64 u = x[j];
            const u64 v = mul_shoup(y[j], w, ws, q);
            x[j] = add_mod(u, v, q);
            y[j] = sub_mod(u, v, q);
        }
    }
}

/// Gentleman–Sande: (x, y) ← (x + y, w·(x − y)).
template <bool Lazy>
void
gs_group(u64 *x, u64 *y, size_t len, u64 w, u64 ws, u64 q)
{
    const u64 two_q = 2 * q;
    for (size_t j = 0; j < len; ++j) {
        const u64 u = x[j], v = y[j];
        if constexpr (Lazy) {
            const u64 s = u + v;
            x[j] = s >= two_q ? s - two_q : s;
            y[j] = mul_shoup_lazy(u - v + two_q, w, ws, q);
        } else {
            x[j] = add_mod(u, v, q);
            y[j] = mul_shoup(sub_mod(u, v, q), w, ws, q);
        }
    }
}

/// The last Gentleman–Sande stage with n⁻¹ folded into both outputs
/// (w = ψ^{-n/2}·n⁻¹); the outputs are reduced. The sum and difference
/// stay below 4q (lazy) or 2q, so they fit a word.
template <bool Lazy>
void
gs_last_group(u64 *x, u64 *y, size_t len, u64 n_inv, u64 n_inv_s, u64 w,
              u64 ws, u64 q)
{
    const u64 bias = Lazy ? 2 * q : q;
    for (size_t j = 0; j < len; ++j) {
        const u64 u = x[j], v = y[j];
        x[j] = mul_shoup(u + v, n_inv, n_inv_s, q);
        y[j] = mul_shoup(u - v + bias, w, ws, q);
    }
}

/**
 * Runs @p body over the n/2 butterflies of one stage, through the pool
 * for large transforms. A stage's butterflies touch disjoint index
 * pairs, so any execution order gives the sequential result bit for
 * bit; parallel_for is the inter-stage barrier.
 */
template <class Body>
void
run_stage(size_t n, bool fan_out, Body &&body)
{
    if (fan_out)
        parallel_for(0, n >> 1, body, 2048);
    else
        body(0, n >> 1);
}

/**
 * Butterflies [b, e) of a stage with half-width t = 2^log_t: butterfly
 * idx is group g = idx / t, pairs a[x] with a[x + t] for
 * x = 2t·g + idx mod t, and uses twiddle slot @p slot0 + g. Calls
 * @p group(x, y, len, slot) once per (partial) group.
 */
template <class Group>
void
for_groups(u64 *a, size_t b, size_t e, int log_t, size_t slot0,
           Group &&group)
{
    const size_t t = size_t{1} << log_t;
    if (t == 1) {
        // One butterfly per group: the group loop unrolls away.
        for (size_t g = b; g < e; ++g)
            group(a + 2 * g, a + 2 * g + 1, 1, slot0 + g);
        return;
    }
    size_t j0 = b & (t - 1);
    for (size_t g = b >> log_t, idx = b; idx < e; ++g, j0 = 0) {
        const size_t len = std::min(t - j0, e - idx);
        u64 *x = a + (g << (log_t + 1)) + j0;
        group(x, x + t, len, slot0 + g);
        idx += len;
    }
}

/// Swaps a into bit-reversed order, passing every element through
/// @p fix exactly once (iteration i owns the pair (i, bitrev[i]) when
/// i ≤ bitrev[i]).
template <class Fix>
void
bitrev_pass(u64 *a, size_t n, const u32 *bitrev, bool fan_out, Fix &&fix)
{
    const auto body = [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            const size_t j = bitrev[i];
            if (i < j) {
                const u64 x = fix(a[i]);
                a[i] = fix(a[j]);
                a[j] = x;
            } else if (i == j) {
                a[i] = fix(a[i]);
            }
        }
    };
    if (fan_out)
        parallel_for(0, n, body, 4096);
    else
        body(0, n);
}

/**
 * Merged negacyclic Cooley–Tukey transform: stage m (m = 1, 2, …, n/2
 * groups) multiplies by ψ^{bitrev(m + g)}, which folds the ψ-twist
 * into the butterflies and leaves the output in bit-reversed order;
 * one reduction + bit-reversal pass restores natural order.
 */
template <bool Lazy>
void
forward_merged(u64 *a, size_t n, u64 q, const u64 *psi,
               const u64 *psi_shoup, const u32 *bitrev, bool fan_out)
{
    int log_t = log2_exact(n);
    for (size_t m = 1; m < n; m <<= 1) {
        --log_t;
        run_stage(n, fan_out, [&](size_t b, size_t e) {
            for_groups(a, b, e, log_t, m,
                       [=](u64 *x, u64 *y, size_t len, size_t slot) {
                           const size_t r = bitrev[slot];
                           ct_group<Lazy>(x, y, len, psi[r], psi_shoup[r],
                                          q);
                       });
        });
    }
    const u64 two_q = 2 * q;
    bitrev_pass(a, n, bitrev, fan_out, [=](u64 x) {
        if constexpr (Lazy)
            x = x >= two_q ? x - two_q : x;
        return x >= q ? x - q : x;
    });
}

/**
 * Merged negacyclic Gentleman–Sande transform, the exact inverse of
 * forward_merged: a bit-reversal pass, then stages of n/2, n/4, …, 1
 * groups multiplying by ψ^{-bitrev(h + g)}. The last stage folds in
 * n⁻¹ and reduces.
 */
template <bool Lazy>
void
inverse_merged(u64 *a, size_t n, u64 q, const u64 *psi_inv,
               const u64 *psi_inv_shoup, const u32 *bitrev, u64 n_inv,
               u64 n_inv_shoup, u64 last, u64 last_shoup, bool fan_out)
{
    bitrev_pass(a, n, bitrev, fan_out, [](u64 x) { return x; });
    const int logn = log2_exact(n);
    for (int log_t = 0; log_t < logn; ++log_t) {
        const size_t h = n >> (log_t + 1);
        run_stage(n, fan_out, [&](size_t b, size_t e) {
            for_groups(a, b, e, log_t, h,
                       [=](u64 *x, u64 *y, size_t len, size_t slot) {
                           if (h == 1) {
                               gs_last_group<Lazy>(x, y, len, n_inv,
                                                   n_inv_shoup, last,
                                                   last_shoup, q);
                               return;
                           }
                           const size_t r = bitrev[slot];
                           gs_group<Lazy>(x, y, len, psi_inv[r],
                                          psi_inv_shoup[r], q);
                       });
        });
    }
}

/// Calls @p f with std::bool_constant<Lazy>: lazy butterflies when
/// their values (below 4q) fit a word, i.e. q < 2^62.
template <class F>
void
with_lazy(u64 q, F &&f)
{
    if (q < (1ULL << 62))
        f(std::true_type{});
    else
        f(std::false_type{});
}

} // namespace

void
NttTables::forward(u64 *a) const
{
    obs::Span span("ntt_r2_fwd", obs::cat::ntt);
    const bool fan_out =
        n_ >= kParallelNttThreshold && ThreadPool::parallel_active();
    with_lazy(q_.value(), [&](auto lazy) {
        forward_merged<lazy()>(a, n_, q_.value(), psi_pow_.data(),
                               psi_pow_shoup_.data(), bitrev_.data(),
                               fan_out);
    });
}

void
NttTables::inverse(u64 *a) const
{
    obs::Span span("ntt_r2_inv", obs::cat::ntt);
    const bool fan_out =
        n_ >= kParallelNttThreshold && ThreadPool::parallel_active();
    with_lazy(q_.value(), [&](auto lazy) {
        inverse_merged<lazy()>(a, n_, q_.value(), psi_inv_pow_.data(),
                               psi_inv_pow_shoup_.data(), bitrev_.data(),
                               n_inv_, n_inv_shoup_, inv_last_,
                               inv_last_shoup_, fan_out);
    });
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
