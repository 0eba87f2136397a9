/**
 * @file
 * Neo's optimized BConv and IP kernels (§4.2, Algorithms 1–4).
 *
 * Each kernel exists in two bit-exact forms:
 *  - the *original* element-wise algorithm (Algorithm 1 / 3) in which
 *    every input limb is walked once per output limb — the poor-reuse
 *    baseline the paper starts from;
 *  - the *matrix* algorithm (Algorithm 2 / 4): scalar pre-scaling,
 *    layout reorder to put the reduction axis innermost (Fig 6 / 8),
 *    one GEMM per coefficient site, and the inverse reorder.
 *
 * The matrix forms take a pluggable GEMM so the same code runs on the
 * scalar reference, the FP64-TCU emulation or the INT8-TCU emulation;
 * tests require identical outputs on all paths.
 */
#pragma once

#include <vector>

#include "common/static_operand.h"
#include "rns/base_convert.h"
#include "tensor/gemm.h"

namespace neo {

/**
 * BConv of a batch of polynomials (Algorithms 1 and 2).
 * Input tensor: α × BatchSize × N (limb-major); output α' × BatchSize
 * × N over the target basis.
 */
class BConvKernel
{
  public:
    BConvKernel(const RnsBasis &from, const RnsBasis &to);

    size_t in_levels() const { return conv_.from().size(); }
    size_t out_levels() const { return conv_.to().size(); }

    /// Algorithm 1: element-wise scalar multiply-accumulate.
    void run_elementwise(const u64 *in, size_t batch, size_t n,
                         u64 *out) const;

    /// Algorithm 2: pre-scale, reorder, GEMM, reorder back.
    void run_matmul(const u64 *in, size_t batch, size_t n, u64 *out,
                    const ModColMatMulFn &mm = scalar_col_matmul()) const;

    /**
     * Exact (centered) variant of the matrix form, as KLSS Mod Up and
     * Recover Limbs require: the preprocessing additionally computes
     * the overflow count r = round(Σ_i y_i / b_i) per coefficient and
     * the epilogue subtracts r·B mod t_j — one rank-1 correction on
     * top of the same GEMM. Bit-exact against
     * BaseConverter::convert_exact.
     */
    void run_matmul_exact(const u64 *in, size_t batch, size_t n, u64 *out,
                          const ModColMatMulFn &mm =
                              scalar_col_matmul()) const;

    const BaseConverter &converter() const { return conv_; }

  private:
    void matmul_common(const u64 *in, size_t batch, size_t n, u64 *out,
                       const ModColMatMulFn &mm, bool exact) const;

    BaseConverter conv_;
    // α × α': (B/b_i) mod t_j. The static B operand of every BConv
    // GEMM, so it keeps its planes once sliced per engine; that makes
    // the kernel move-only.
    StaticOperand factor_matrix_;
    // Shoup companions of B mod t_j, for the exact-mode epilogue.
    std::vector<u64> product_shoup_;
};

/**
 * IP — the KeySwitch inner product over R_T (Algorithms 3 and 4).
 * Limb tensor: β × α' × BatchSize × N; keys: β̃ × β × α' × N; output
 * β̃ × α' × BatchSize × N. All data NTT-form residues mod t_k (the
 * modulus of the k-th α' slice).
 */
class IpKernel
{
  public:
    /// @param t_mods the α' moduli of the T base.
    IpKernel(std::vector<Modulus> t_mods, size_t beta, size_t beta_tilde);

    /// Algorithm 3: β̃·β element-wise multiply-accumulate passes.
    void run_elementwise(const u64 *limbs, const u64 *keys, size_t batch,
                         size_t n, u64 *out) const;

    /**
     * Algorithm 4: reorder both tensors, then ONE batched engine call
     * covering every (l, k) site — a site is a BS×β̃×β product reduced
     * mod t_k, and issuing all N·α' of them together amortises the
     * engine's per-call fixed costs across the whole inner product.
     */
    void run_matmul(const u64 *limbs, const u64 *keys, size_t batch,
                    size_t n, u64 *out,
                    const ModSiteMatMulFn &mm = scalar_site_matmul()) const;

    /**
     * Algorithm 4 with the key tensor already in the Fig 8 layout
     * (β̃×β×α'×N reversed to N×α'×β×β̃). Key material is static per
     * (key, level), so callers keep the reorder — as a StaticOperand,
     * which also keeps its planes — instead of paying it on every
     * keyswitch.
     */
    void run_matmul_reordered(const u64 *limbs, OperandRef keys_r,
                              size_t batch, size_t n, u64 *out,
                              const ModSiteMatMulFn &mm =
                                  scalar_site_matmul()) const;

  private:
    void matmul_impl(const u64 *limbs, OperandRef keys_r, size_t batch,
                     size_t n, u64 *out, const ModSiteMatMulFn &mm) const;

    std::vector<Modulus> t_mods_;
    size_t beta_;
    size_t beta_tilde_;
};

} // namespace neo
