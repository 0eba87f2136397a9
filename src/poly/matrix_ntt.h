/**
 * @file
 * Matrix-form NTT: the four-step and radix-16 ("ten-step")
 * decompositions of §4.4 / Fig 9.
 *
 * The length-n cyclic DFT is factored as n = n1 · n2:
 *   1. view the input as an n1×n2 matrix A[r][c] = x[r + n1·c]
 *      (a transpose-gather),
 *   2. transform each row (length n2) — recursively, until the length
 *      reaches the radix, where it becomes a (rows × n2) · (n2 × n2)
 *      matrix multiplication with the twiddle matrix,
 *   3. multiply element (r, k2) by the twisting factor ω^{r·k2}
 *      ("Mul & Trans" in Fig 9),
 *   4. multiply by the n1×n1 twiddle matrix.
 * The result lands in natural order.
 *
 * Execution is stage-batched, as on the GPU: each recursion level
 * gathers every row of the batch, recurses once on all rows·n1
 * sub-rows, and runs its twiddle product as one GEMM over all rows. The
 * twiddle matrix is symmetric, so W·A = (Aᵀ·W)ᵀ: step 3 writes the
 * twisted matrix transposed and step 4 is a (rows·n2 × n1) · (n1 × n1)
 * product with W always on the right, a StaticOperand that keeps its
 * sliced planes. A length-n transform therefore makes exactly
 * complexity().matmul_stages engine calls.
 *
 * radix = n1 = √n  reproduces the classic four-step NTT; radix = 16
 * reproduces SHARP/Neo's radix-16 NTT, whose matrix products are all
 * 16×16 — the shape that maps onto TCU fragments (Fig 10). All matrix
 * products go through a ModMatMulFn so the TCU emulation can be
 * substituted.
 */
#pragma once

#include <vector>

#include "common/static_operand.h"
#include "poly/mat_mul.h"
#include "poly/ntt.h"

namespace neo {

/** Four-step / radix-r matrix NTT over one modulus. */
class MatrixNtt
{
  public:
    /**
     * @param tables  base NTT tables (provides ψ/ω powers).
     * @param radix   decomposition base; the transform bottoms out in
     *                radix×radix twiddle matmuls. Use radix == √n for
     *                the classic four-step, 16 for radix-16.
     */
    MatrixNtt(const NttTables &tables, size_t radix);

    size_t n() const { return tables_.n(); }
    size_t radix() const { return radix_; }

    /**
     * Forward negacyclic NTT; same convention as NttTables::forward.
     * With @p fuse set, the ψ pre-twist pass is folded into the
     * top-level transpose-gather (one streaming pass less — the GPU
     * mapping's "twiddle-scale into NTT prologue" fusion). The fused
     * and unfused paths apply the same modular product to every
     * element, so outputs are bit-identical.
     */
    void forward(u64 *a, const ModMatMulFn &mm = default_mat_mul(),
                 bool fuse = false) const;

    /// Inverse negacyclic NTT. With @p fuse set, the n⁻¹·ψ⁻¹ scaling
    /// pass is folded into the top-level writeback (bit-identical).
    void inverse(u64 *a, const ModMatMulFn &mm = default_mat_mul(),
                 bool fuse = false) const;

    /** Work counts for the performance model. */
    struct Complexity
    {
        u64 matmul_macs = 0;      ///< multiply-accumulates inside matmuls
        u64 twist_muls = 0;       ///< scalar twiddle multiplications
        u64 reorder_elems = 0;    ///< elements moved by gather/transpose
        u64 matmul_stages = 0;    ///< matmul stages = engine calls
    };

    /// Analytical complexity of one transform of length n.
    Complexity complexity() const;

    /// Same computation without building tables (for cost models).
    static Complexity complexity_for(size_t n, size_t radix);

  private:
    /// Element-wise pass folded into the top-level call (never into
    /// the recursion) when the caller asked for fusion.
    enum class TopTwist {
        none,     ///< plain cyclic transform
        psi_fwd,  ///< ψ pre-twist fused into the gather
        psi_inv,  ///< n⁻¹·ψ⁻¹ scaling fused into the writeback
    };

    /// Transform @p rows contiguous vectors of length @p len in place,
    /// with one engine call per radix stage.
    void cyclic_batch(u64 *a, size_t rows, size_t len, bool inverse,
                      const ModMatMulFn &mm,
                      TopTwist top = TopTwist::none) const;

    /// Twiddle matrix W[c][k] = ω_len^{ck} (or inverse) for len ≤ radix.
    const StaticOperand &twiddle_matrix(size_t len, bool inverse) const;

    static void accumulate(Complexity &c, size_t rows, size_t len,
                           size_t radix);

    const NttTables &tables_;
    size_t radix_;
    // Twiddle matrices for all lengths 2..radix (powers of two),
    // forward and inverse, indexed by log2(len). They are the static B
    // operand of every matmul stage, so each keeps its own planes; that
    // makes the class move-only.
    std::vector<StaticOperand> w_fwd_, w_inv_;
};

} // namespace neo
