/**
 * @file
 * Modular matrix-multiplication interface.
 *
 * Every kernel the paper maps onto the Tensor Core (NTT stages, BConv,
 * IP) funnels its matrix products through this signature, so the
 * backend can be swapped between:
 *   - the scalar reference (CUDA-core analogue),
 *   - the FP64 bit-sliced emulation of the TCU datapath (tensor/),
 *   - the INT8 bit-sliced emulation.
 * All backends must be bit-exact; tests enforce it.
 */
#pragma once

#include <cstddef>
#include <functional>

#include "common/static_operand.h"
#include "rns/modulus.h"

namespace neo {

/**
 * C = A · B (mod q); A is M×K, B is K×N, C is M×N, all row-major,
 * entries reduced mod q. B is a raw pointer or a whole StaticOperand.
 */
using ModMatMulFn =
    std::function<void(const u64 *a, OperandRef b, u64 *c, size_t m,
                       size_t n, size_t k, const Modulus &q)>;

/// Reference triple-loop implementation with 128-bit accumulation.
void scalar_mod_matmul(const u64 *a, OperandRef b, u64 *c, size_t m,
                       size_t n, size_t k, const Modulus &q);

/// The default ModMatMulFn wrapping scalar_mod_matmul.
const ModMatMulFn &default_mat_mul();

} // namespace neo
