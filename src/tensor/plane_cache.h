/**
 * @file
 * neo::PlaneCache — memoised bit-sliced planes and pow2 recombine
 * tables for *static* GEMM operands.
 *
 * Every sliced GEMM re-derives two invariant artefacts per call: the
 * plane decomposition of each operand (slice_to_f64 / slice_to_i32 —
 * a full pass over the matrix) and the 2^shift mod q recombine table
 * with its Shoup companions.
 * For the operands that never change between calls — BConv factor
 * matrices, NTT twiddle matrices, evaluation-key blocks — that work is
 * pure waste. The cache stores the derived forms once and serves them
 * on every subsequent call.
 *
 * Eligibility: only operands *pinned* in neo::StaticOperands
 * (common/static_operand.h) are cached. The pin is the owner's promise
 * that the bytes are stable and immutable; its generation id is part
 * of the cache key, so when a buffer is freed and its address reused,
 * stale entries miss instead of aliasing the new object. Unpinned
 * operands bypass the cache entirely (no counters, no storage).
 *
 * Entries are returned as shared_ptr so a concurrent rebuild (pin
 * generation changed) can never free planes out from under a running
 * GEMM.
 *
 * Counters (only for pin-eligible lookups): `gemm.plane_cache.hit`,
 * `gemm.plane_cache.miss` (a miss immediately populates the entry).
 * pow2 tables are keyed by (plan, modulus) only — they are data-
 * independent and tiny, so they are cached unconditionally and do not
 * contribute to hit/miss.
 */
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "tensor/bitslice.h"

namespace neo {

class PlaneCache
{
  public:
    using F64Ptr = std::shared_ptr<const std::vector<double>>;
    using I32Ptr = std::shared_ptr<const std::vector<i32>>;
    /// Recombine weights 2^shift mod q, row-major in (pa, pb), with
    /// their Shoup companions for division-free mul_shoup. Pair (0, 0)
    /// has shift 0: w[0] = 1, and w_shoup[0] reduces any 64-bit value.
    struct Pow2Table
    {
        std::vector<u64> w, w_shoup;
        /// How many values below 2q a u64 sum can hold: ⌊2^63 / q⌋.
        u64 lazy_terms = 0;
    };
    using Pow2Ptr = std::shared_ptr<const Pow2Table>;

    /// The process-wide cache.
    static PlaneCache &global();

    /**
     * FP64 planes of the operand [p, p+count u64 words) decomposed
     * into @p planes planes of @p plane_bits bits. Returns null when
     * the operand is not pinned (caller slices into scratch) or the
     * cache is disabled; otherwise returns the memoised planes
     * (building them on first use).
     */
    F64Ptr f64_planes(const u64 *p, size_t count, int planes, int plane_bits);

    /// INT8-in-i32 planes, same contract as f64_planes().
    I32Ptr i32_planes(const u64 *p, size_t count, int planes, int plane_bits);

    /**
     * Largest bit width over the operand's words, memoised per pin.
     * Returns -1 when not pinned / disabled (caller scans itself).
     */
    int width_bits(const u64 *p, size_t count);

    /**
     * The a_planes×b_planes table of 2^(pa·a_bits + pb·b_bits) mod q,
     * row-major in (pa, pb), plus Shoup companions. Always cached
     * (keyed by plan shape and modulus value, not by data).
     */
    Pow2Ptr pow2(const SplitPlan &plan, u64 q_value);

    /// Test hook: false routes every lookup to the uncached path.
    void set_enabled(bool on);
    bool enabled() const;

    /// Drop all entries (tests; owners' pins are untouched).
    void clear();

  private:
    PlaneCache();
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace neo
