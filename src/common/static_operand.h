/**
 * @file
 * Long-lived ("static") GEMM operands, and the B-operand handle the
 * GEMM engines take.
 *
 * Neo's TCU mapping multiplies a few fixed matrices again and again:
 * the NTT twiddle matrices, the BConv factor matrices and the
 * reordered KLSS key tensors. The sliced engines (tensor/gemm.h)
 * decompose every operand into FP64/INT8 planes before multiplying;
 * for a fixed matrix that decomposition is the same on every call. A
 * StaticOperand owns such a matrix's values together with the forms
 * derived from them, so each form is built once and dies with the
 * values it came from. The owner is the identity: nothing is keyed by
 * address, so there is nothing to invalidate when memory is reused.
 *
 * This header lives in common/ (below poly/ and tensor/) so owners in
 * any layer can hold one; the derived forms are the tensor layer's.
 */
#pragma once

#include <array>
#include <map>
#include <memory>
#include <vector>

#include "common/math_util.h"
#include "common/mutex.h"
#include "common/types.h"

namespace neo {

class StaticOperand
{
  public:
    /// A form derived from the values (the tensor layer's planes).
    struct Derived
    {
        virtual ~Derived() = default;
    };
    /// Memo key of a derived form: (element type, planes, plane bits).
    using Key = std::array<int, 3>;

    StaticOperand() = default;

    explicit StaticOperand(std::vector<u64> values)
        : values_(std::move(values)), bits_(width(values_))
    {
    }

    /// Moves the values with their derived forms. Not copyable: a copy
    /// would slice the same values again.
    StaticOperand(StaticOperand &&o) noexcept
        : values_(std::move(o.values_)), bits_(o.bits_)
    {
        LockGuard lock(o.mu_);
        memo_ = std::move(o.memo_);
    }

    const u64 *data() const { return values_.data(); }
    size_t size() const { return values_.size(); }
    u64 operator[](size_t i) const { return values_[i]; }
    /// Bit width of the largest value.
    int bits() const { return bits_; }

    /**
     * The derived form under @p key, made by @p make on first use. The
     * lookup and the build share one lock, so concurrent first uses
     * build once and every caller sees the same storage, which lives
     * exactly as long as this operand.
     */
    template <class Make>
    const Derived &
    derived(const Key &key, Make &&make) const
    {
        LockGuard lock(mu_);
        std::unique_ptr<Derived> &slot = memo_[key];
        if (slot == nullptr)
            slot = make();
        return *slot;
    }

  private:
    static int
    width(const std::vector<u64> &values)
    {
        u64 m = 0;
        for (u64 v : values)
            m |= v;
        return bit_size(m);
    }

    std::vector<u64> values_;
    const int bits_ = 0;
    mutable Mutex mu_;
    mutable std::map<Key, std::unique_ptr<Derived>> memo_ NEO_GUARDED_BY(mu_);
};

/**
 * The B operand of a GEMM engine (poly/mat_mul.h, tensor/gemm.h): the
 * values, plus their owner when B is static so the sliced engines can
 * reuse its planes. Converts implicitly from a raw pointer (no memo)
 * and from an owner, so call sites pass either.
 */
struct OperandRef
{
    OperandRef(const u64 *p) : data(p) {}
    OperandRef(const StaticOperand &o) : data(o.data()), owner(&o) {}

    const u64 *data;
    const StaticOperand *owner = nullptr;
};

} // namespace neo
