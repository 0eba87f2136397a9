#include "tensor/bitslice.h"

#include "common/check.h"

namespace neo {

// choose_fp64_split / choose_int8_split and the split_plan_exact
// proofs live in the header as constexpr so gemm.cpp can
// static_assert the bit budgets at compile time.

void
slice_to_f64(const u64 *in, size_t n, int planes, int plane_bits,
             double *out)
{
    NEO_ASSERT(plane_bits > 0 && plane_bits < 64, "bad plane width");
    const u64 mask = plane_bits == 63 ? ~0ULL >> 1
                                      : ((1ULL << plane_bits) - 1);
    for (int p = 0; p < planes; ++p) {
        const int shift = p * plane_bits;
        double *dst = out + static_cast<size_t>(p) * n;
        for (size_t i = 0; i < n; ++i) {
            u64 chunk = shift >= 64 ? 0 : ((in[i] >> shift) & mask);
            // chunk < 2^63: the signed conversion is exact and one
            // instruction on every baseline ISA.
            dst[i] = static_cast<double>(static_cast<i64>(chunk));
        }
    }
}

void
slice_to_i32(const u64 *in, size_t n, int planes, int plane_bits,
             i32 *out)
{
    NEO_ASSERT(plane_bits > 0 && plane_bits <= 16, "bad plane width");
    const u64 mask = (1ULL << plane_bits) - 1;
    for (int p = 0; p < planes; ++p) {
        const int shift = p * plane_bits;
        i32 *dst = out + static_cast<size_t>(p) * n;
        for (size_t i = 0; i < n; ++i) {
            u64 chunk = shift >= 64 ? 0 : ((in[i] >> shift) & mask);
            dst[i] = static_cast<i32>(chunk);
        }
    }
}

} // namespace neo
