/**
 * @file
 * A single RNS prime modulus with precomputed constants for fast
 * modular arithmetic.
 *
 * Word sizes in this project range from 30 to 64 bits (the paper's
 * WordSize is 36 or 60, and WordSize_T ranges over {36, 48, 64}), so
 * products need a 128-bit intermediate. Hot loops with a fixed
 * multiplicand (NTT twiddles, base-conversion factors) use Shoup
 * multiplication, which replaces the 128-bit division with one mulhi
 * and one correction.
 */
#pragma once

#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/types.h"

namespace neo {

/** An odd prime modulus q < 2^63 with Barrett constant. */
class Modulus
{
  public:
    Modulus() = default;

    /// Wrap @p q; precomputes the Barrett ratio floor(2^128 / q).
    explicit Modulus(u64 q) : value_(q)
    {
        NEO_CHECK(q > 1 && q < (1ULL << 63), "modulus out of range");
        // Barrett: ratio = floor(2^128 / q), stored as two 64-bit words.
        // Computed via 128-bit long division in two steps.
        u128 hi = (static_cast<u128>(1) << 64) / q; // floor(2^64/q) low part
        u128 rem = (static_cast<u128>(1) << 64) % q;
        ratio_hi_ = static_cast<u64>(hi);
        ratio_lo_ = static_cast<u64>((rem << 64) / q);
    }

    /// The prime value q.
    u64 value() const { return value_; }

    /// Bit width of q.
    int bits() const { return bit_size(value_); }

    /**
     * (a * b) mod q, division-free through barrett_reduce. Requires one
     * operand below q (either one; the other may be any 64-bit value),
     * so that a·b < q·2^64.
     */
    u64
    mul(u64 a, u64 b) const
    {
        NEO_ASSERT(a < value_ || b < value_,
                   "Modulus::mul needs one operand below q");
        return barrett_reduce(static_cast<u128>(a) * b);
    }

    /**
     * Barrett reduction of a 128-bit value using the precomputed
     * floor(2^128/q): one mulhi chain and one correction — the
     * division-free reduction GPU kernels use. Requires x < q·2^64
     * (true for any product with one operand below q).
     *
     * The dropped low word of lo·ratio_lo cannot carry into the top
     * word, so q_est = floor(x·ratio / 2^128) exactly, and the ratio's
     * truncation costs less than x / 2^128 < 1: q_est ≥ floor(x/q) − 1,
     * the remainder lies in [0, 2q) and one correction reduces it.
     */
    u64
    barrett_reduce(u128 x) const
    {
        const u64 lo = static_cast<u64>(x);
        const u64 hi = static_cast<u64>(x >> 64);
        // q_est = floor(x * ratio / 2^128), with ratio = ratio_hi·2^64
        // + ratio_lo: keep only the bits that reach the top word.
        const u128 mid =
            (static_cast<u128>(lo) * ratio_lo_ >> 64) +
            static_cast<u128>(lo) * ratio_hi_ +
            static_cast<u128>(hi) * ratio_lo_;
        // The remainder fits a word, so the low words suffice.
        const u64 q_est = static_cast<u64>(mid >> 64) + hi * ratio_hi_;
        const u64 r = lo - q_est * value_;
        return r >= value_ ? r - value_ : r;
    }

    /// (a + b) mod q with a,b < q.
    u64 add(u64 a, u64 b) const { return add_mod(a, b, value_); }

    /// (a - b) mod q with a,b < q.
    u64 sub(u64 a, u64 b) const { return sub_mod(a, b, value_); }

    /// a^e mod q.
    u64 pow(u64 a, u64 e) const { return pow_mod(a, e, value_); }

    /// a^-1 mod q (q prime).
    u64 inv(u64 a) const { return inv_mod(a, value_); }

    /// Reduce an arbitrary 64-bit value (Barrett, division-free).
    u64 reduce(u64 a) const { return barrett_reduce(a); }

    /// Reduce a 128-bit value.
    u64 reduce128(u128 a) const { return static_cast<u64>(a % value_); }

    bool operator==(const Modulus &o) const { return value_ == o.value_; }

  private:
    u64 value_ = 0;
    u64 ratio_hi_ = 0;
    u64 ratio_lo_ = 0;
};

/**
 * Shoup precomputation for multiplying by a fixed constant w mod q:
 * w_shoup = floor(w * 2^64 / q). mul_shoup then needs only a mulhi.
 */
inline u64
shoup_precompute(u64 w, u64 q)
{
    return static_cast<u64>((static_cast<u128>(w) << 64) / q);
}

/**
 * a·w mod q up to one extra q, given w_shoup = shoup_precompute(w, q)
 * and w < q: the result is congruent to a·w and lies in [0, 2q) for
 * every 64-bit a — a need not be reduced.
 */
inline u64
mul_shoup_lazy(u64 a, u64 w, u64 w_shoup, u64 q)
{
    u64 hi = static_cast<u64>((static_cast<u128>(a) * w_shoup) >> 64);
    return a * w - hi * q;
}

/// (a * w) mod q given w_shoup = shoup_precompute(w, q). Result < q,
/// for every 64-bit a.
inline u64
mul_shoup(u64 a, u64 w, u64 w_shoup, u64 q)
{
    const u64 r = mul_shoup_lazy(a, w, w_shoup, q);
    return r >= q ? r - q : r;
}

} // namespace neo
