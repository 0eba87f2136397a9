#include "tensor/gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/math_util.h"
#include "common/mutex.h"
#include "common/static_operand.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "obs/obs.h"

namespace neo {

/*
 * Compile-time bit-budget proofs — the static_assert mirror of the
 * neo-lint bit-budget prover (src/lint/bit_budget.h). Every (word
 * size, WordSize_T, K depth) plan reachable from the paper parameter
 * sets A–H and the test presets must keep its worst-case plane
 * accumulation below the FP64 mantissa (2^53) / INT32 accumulator
 * (2^31) bound, independently re-derived by split_plan_exact in
 * 128-bit integer arithmetic. If a planner change ever produces an
 * out-of-budget plan, this block turns it into a *build* failure.
 *
 * Word sizes: 36/60-bit q primes, {36, 48, 64}-bit WordSize_T, 30-bit
 * test primes. K depths: 16 (radix-16 NTT twiddle matmul), 256
 * (four-step NTT at N = 2^16), 46 (widest BConv source basis, Set H's
 * L+1+α), and the small IP/gadget dimensions.
 */
namespace {

constexpr bool
fp64_budget_table_holds()
{
    constexpr int words[] = {30, 36, 48, 60, 64};
    constexpr size_t ks[] = {1, 2, 4, 5, 16, 40, 46, 64, 256};
    for (int w : words)
        for (size_t k : ks)
            if (!fp64_plan_exact(w, w, k))
                return false;
    return true;
}

constexpr bool
int8_budget_table_holds()
{
    constexpr int words[] = {30, 36, 48, 60, 64};
    constexpr size_t ks[] = {1, 2, 4, 5, 16, 40, 46, 64, 256};
    for (int w : words)
        for (size_t k : ks)
            if (!int8_plan_exact(w, w, k))
                return false;
    return true;
}

static_assert(fp64_budget_table_holds(),
              "FP64 plane plan exceeds the 2^53 mantissa budget for a "
              "reachable (word size, K) configuration");
static_assert(int8_budget_table_holds(),
              "INT8 plane plan exceeds the INT32 accumulator budget for "
              "a reachable (word size, K) configuration");

// The paper's flagship examples, spelled out (§3.4): a 36-bit word
// kept whole against 12-bit planes over K = 16 sums to 2^52 < 2^53;
// 48-bit words split 2×24b each leave 53 − 48 = 5 bits of headroom
// at K ≤ 32.
static_assert(choose_fp64_split(36, 36, 16).products() == 3 &&
                  fp64_plan_exact(36, 36, 16),
              "paper Fig 3 36-bit plan regressed");
static_assert(choose_fp64_split(48, 48, 16).products() == 4 &&
                  fp64_plan_exact(48, 48, 16),
              "paper Fig 3 48-bit plan regressed");

} // namespace

namespace {

/// One probe per public GEMM entry point: a timed span plus the call /
/// flop / shape accounting. Plane sub-GEMMs inside an entry are part
/// of the same logical modular matmul and are not counted separately.
void
note_gemm(size_t m, size_t n, size_t k)
{
    if (auto *r = obs::current())
        r->add_gemm(m, n, k);
}

/**
 * Row-chunk grain for the parallel GEMM loops. Two goals: every chunk
 * carries at least ~16k MAC operations (so submission overhead stays
 * negligible), and the chunk count stays within a few chunks per pool
 * thread — in particular a 1-thread pool gets exactly one chunk and
 * pays zero chunking overhead. Invariance: chunking splits *output
 * rows* only; every output element's k-accumulation (and its plane
 * recombination) happens entirely inside one chunk in a fixed order,
 * so the grain changes scheduling, never values — results are
 * bit-identical for any grain and any thread count.
 */
size_t
row_grain(size_t m, size_t n, size_t k)
{
    return row_chunk_grain(m, n * k);
}

// Cache-tile sizes for the plane GEMM. Rows come in recombination
// tiles (kMC, below); NC × KC tile the j / t loops so the B panel in
// use stays L1/L2-resident; MR rows × NV vectors is the register tile.
constexpr size_t kNC = 128;
constexpr size_t kKC = 256;
constexpr size_t kMR = 4;

/**
 * 16-byte vectors through the GCC/Clang vector extension. Every 64-bit
 * baseline ISA has 16-byte vector registers (SSE2 on x86-64, NEON on
 * AArch64), so this vectorizes with no -march and no dispatch; lanes
 * are independent elements, so arithmetic is the scalar arithmetic.
 */
typedef double f64x2 __attribute__((vector_size(16)));
typedef i32 i32x4 __attribute__((vector_size(16)));

template <class T>
struct VecOf;
template <>
struct VecOf<double>
{
    using type = f64x2;
};
template <>
struct VecOf<i32>
{
    using type = i32x4;
};

/**
 * The register tile: prod[i..i+MR, j..j+NV·L] (+)= am[i.., t0..t1] ·
 * bm[t0..t1, j..], with MR·NV vector accumulators ("=" when first,
 * "+=" on later KC slabs). Loads and stores go through memcpy, so no
 * alignment is assumed.
 */
template <class T, size_t NV>
inline void
plane_tile(const T *am, const T *bm, T *prod, size_t i, size_t j,
           size_t t0, size_t t1, size_t n, size_t k, bool first)
{
    using V = typename VecOf<T>::type;
    constexpr size_t L = sizeof(V) / sizeof(T);
    V acc[kMR][NV] = {};
    const T *a0 = am + i * k;
    for (size_t t = t0; t < t1; ++t) {
        V bv[NV];
#pragma GCC unroll 2
        for (size_t v = 0; v < NV; ++v)
            std::memcpy(&bv[v], bm + t * n + j + v * L, sizeof(V));
#pragma GCC unroll 4
        for (size_t ii = 0; ii < kMR; ++ii) {
            const T av = a0[ii * k + t];
#pragma GCC unroll 2
            for (size_t v = 0; v < NV; ++v)
                acc[ii][v] += av * bv[v];
        }
    }
#pragma GCC unroll 4
    for (size_t ii = 0; ii < kMR; ++ii) {
#pragma GCC unroll 2
        for (size_t v = 0; v < NV; ++v) {
            T *out = prod + (i + ii) * n + j + v * L;
            if (!first) {
                V old;
                std::memcpy(&old, out, sizeof(V));
                acc[ii][v] += old;
            }
            std::memcpy(out, &acc[ii][v], sizeof(V));
        }
    }
}

/**
 * One cache block of the plane GEMM:
 *   prod[i0..i1, j0..j1] (+)= am[i0..i1, t0..t1] · bm[t0..t1, j0..j1]
 * ("=" when first, "+=" otherwise, i.e. on later KC slabs). Full MR-row
 * strips run the vector tile, two vectors wide and then one; leftover
 * rows and columns run scalar loops.
 *
 * Exactness: for FP64 every partial sum stays below 2^53 by
 * construction of the SplitPlan (INT8 planes below 2^31), so
 * accumulation is exact in any order and the blocked kernel is
 * bit-identical to the naive triple loop. It also keeps each output
 * element's t-products in ascending t order, so it would be even
 * without the proof.
 */
template <class T>
void
plane_gemm_block(const T *am, const T *bm, T *prod, size_t i0, size_t i1,
                 size_t j0, size_t j1, size_t t0, size_t t1, size_t n,
                 size_t k, bool first)
{
    constexpr size_t L = sizeof(typename VecOf<T>::type) / sizeof(T);
    const auto store = [&](T &out, T acc) {
        out = first ? acc : out + acc;
    };
    size_t i = i0;
    for (; i + kMR <= i1; i += kMR) {
        size_t j = j0;
        for (; j + 2 * L <= j1; j += 2 * L)
            plane_tile<T, 2>(am, bm, prod, i, j, t0, t1, n, k, first);
        for (; j + L <= j1; j += L)
            plane_tile<T, 1>(am, bm, prod, i, j, t0, t1, n, k, first);
        for (; j < j1; ++j) {
            T acc[kMR] = {};
            for (size_t t = t0; t < t1; ++t) {
                const T bv = bm[t * n + j];
#pragma GCC unroll 4
                for (size_t ii = 0; ii < kMR; ++ii)
                    acc[ii] += am[(i + ii) * k + t] * bv;
            }
#pragma GCC unroll 4
            for (size_t ii = 0; ii < kMR; ++ii)
                store(prod[(i + ii) * n + j], acc[ii]);
        }
    }
    for (; i < i1; ++i)
        for (size_t j = j0; j < j1; ++j) {
            T acc = 0;
            for (size_t t = t0; t < t1; ++t)
                acc += am[i * k + t] * bm[t * n + j];
            store(prod[i * n + j], acc);
        }
}

/// prod = am(m×k) · bm(k×n) for one block of rows, cache-blocked.
template <class T>
void
plane_gemm_rows(const T *am, const T *bm, T *prod, size_t m, size_t n,
                size_t k)
{
    for (size_t jc = 0; jc < n; jc += kNC) {
        const size_t je = std::min(n, jc + kNC);
        for (size_t tc = 0; tc < k; tc += kKC)
            plane_gemm_block(am, bm, prod, 0, m, jc, je, tc,
                             std::min(k, tc + kKC), n, k, tc == 0);
    }
}

/**
 * Process totals of the memoised derived data — plane sets of static
 * operands and pow2 tables — published as the `plane_cache.*` gauges on
 * every change. Constant-initialised, so it outlives every owner that
 * is destroyed during exit.
 */
struct Resident
{
    Mutex mu;
    i64 bytes NEO_GUARDED_BY(mu) = 0;
    i64 entries NEO_GUARDED_BY(mu) = 0;
};
constinit Resident g_resident;

void
note_resident(i64 bytes, i64 entries)
{
    LockGuard lock(g_resident.mu);
    g_resident.bytes += bytes;
    g_resident.entries += entries;
    obs::set_gauge("plane_cache.resident_bytes",
                   static_cast<double>(g_resident.bytes));
    obs::set_gauge("plane_cache.entries",
                   static_cast<double>(g_resident.entries));
}

/// The planes of a static operand, kept (and counted resident) for
/// exactly the owner's lifetime.
template <class T>
struct PlaneSet final : StaticOperand::Derived
{
    PlaneSet(const u64 *p, size_t count, int planes, int plane_bits)
        : v(static_cast<size_t>(planes) * count)
    {
        if constexpr (std::is_same_v<T, double>)
            slice_to_f64(p, count, planes, plane_bits, v.data());
        else
            slice_to_i32(p, count, planes, plane_bits, v.data());
        note_resident(bytes(), 1);
    }
    ~PlaneSet() override { note_resident(-bytes(), -1); }

    i64 bytes() const { return static_cast<i64>(v.size() * sizeof(T)); }

    std::vector<T> v;
};

/// Planes of an operand of @p count words: the owner's memoised set
/// when it has one (a `gemm.plane_cache` hit or miss), else a fresh
/// slice valid for @p frame's lifetime.
template <class T>
const T *
operand_planes(OperandRef op, size_t count, int planes, int plane_bits,
               Workspace::Frame &frame)
{
    if (op.owner != nullptr) {
        NEO_ASSERT(op.owner->size() == count,
                   "a static operand is passed whole");
        bool built = false;
        const StaticOperand::Key key{std::is_same_v<T, double> ? 0 : 1,
                                     planes, plane_bits};
        const auto &set = op.owner->derived(key, [&] {
            built = true;
            return std::make_unique<PlaneSet<T>>(op.data, count, planes,
                                                 plane_bits);
        });
        if (auto *r = obs::current())
            r->add(built ? "gemm.plane_cache.miss" : "gemm.plane_cache.hit");
        return static_cast<const PlaneSet<T> &>(set).v.data();
    }
    T *buf = frame.alloc<T>(static_cast<size_t>(planes) * count);
    if constexpr (std::is_same_v<T, double>)
        slice_to_f64(op.data, count, planes, plane_bits, buf);
    else
        slice_to_i32(op.data, count, planes, plane_bits, buf);
    return buf;
}

int
operand_bits(OperandRef op, size_t count)
{
    if (op.owner != nullptr)
        return op.owner->bits();
    u64 m = 0;
    for (size_t i = 0; i < count; ++i)
        m |= op.data[i];
    return bit_size(m);
}

/// Recombine weights 2^shift mod q, row-major in (pa, pb), with their
/// Shoup companions for division-free mul_shoup. Pair (0, 0) has shift
/// 0: w[0] = 1, and w_shoup[0] reduces any 64-bit value.
struct Pow2Table
{
    std::vector<u64> w, w_shoup;
    /// How many values below 2q a u64 sum can hold: ⌊2^63 / q⌋.
    u64 lazy_terms = 0;
};

/// The pow2 table of (@p plan, @p q_value). Data-independent and tiny,
/// so memoised for the process.
const Pow2Table &
pow2_table(const SplitPlan &plan, u64 q_value)
{
    struct Memo
    {
        Mutex mu;
        std::map<std::array<u64, 5>, Pow2Table> tables NEO_GUARDED_BY(mu);
    };
    // Guarded by its own mutex. neo-lint: allow(thread-unsafe-static)
    static Memo memo;
    const std::array<u64, 5> key{
        static_cast<u64>(plan.a_planes), static_cast<u64>(plan.a_plane_bits),
        static_cast<u64>(plan.b_planes), static_cast<u64>(plan.b_plane_bits),
        q_value};
    LockGuard lock(memo.mu);
    auto [it, inserted] = memo.tables.try_emplace(key);
    Pow2Table &t = it->second;
    if (inserted) {
        for (int pa = 0; pa < plan.a_planes; ++pa)
            for (int pb = 0; pb < plan.b_planes; ++pb) {
                const u64 w = pow_mod(
                    2, pa * plan.a_plane_bits + pb * plan.b_plane_bits,
                    q_value);
                t.w.push_back(w);
                t.w_shoup.push_back(shoup_precompute(w, q_value));
            }
        t.lazy_terms = (1ULL << 63) / q_value;
        note_resident(static_cast<i64>(2 * t.w.size() * sizeof(u64)), 1);
    }
    return t;
}

/// A plane-product sum as the integer it holds exactly: FP64 sums stay
/// below 2^53 and INT32 sums of unsigned 8-bit planes below 2^31, so
/// the signed conversions are exact (and single instructions).
inline u64
to_u64(double v)
{
    return static_cast<u64>(static_cast<i64>(v));
}

inline u64
to_u64(i32 v)
{
    return static_cast<u64>(v);
}

/**
 * Recombine weights of one GEMM: column j reduces modulo q[j], and
 * plane pair `pair` carries w[pair·n + j] = 2^shift mod q[j] with Shoup
 * companion ws[pair·n + j]. `lazy` is the fewest lazy terms a u64 sum
 * holds over all columns (Pow2Table::lazy_terms).
 */
struct Weights
{
    const u64 *q, *w, *ws;
    u64 lazy;
};

/// Weights for @p n columns, column j reducing mod qcol(j), from the
/// cached recombine tables; the arrays live in @p frame.
template <class ColQ>
Weights
column_weights(Workspace::Frame &frame, const SplitPlan &plan, size_t n,
               ColQ &&qcol)
{
    const size_t pairs = static_cast<size_t>(plan.products());
    u64 *q = frame.alloc<u64>(n);
    u64 *w = frame.alloc<u64>(pairs * n);
    u64 *ws = frame.alloc<u64>(pairs * n);
    Weights wt{q, w, ws, ~0ULL};
    const Pow2Table *tab = nullptr;
    for (size_t j = 0; j < n; ++j) {
        q[j] = qcol(j);
        if (j == 0 || q[j] != q[j - 1])
            tab = &pow2_table(plan, q[j]);
        wt.lazy = std::min(wt.lazy, tab->lazy_terms);
        for (size_t pair = 0; pair < pairs; ++pair) {
            w[pair * n + j] = tab->w[pair];
            ws[pair * n + j] = tab->w_shoup[pair];
        }
    }
    return wt;
}

/**
 * Recombination of one tile, division-free: c[e] = Σ_pair 2^shift ·
 * p[pair·count + e] (mod q_j) over `pairs` plane products of `count`
 * elements (rows of n columns, the last row possibly partial), one
 * streaming pass per pair. Each term is a lazy Shoup product in
 * [0, 2q) — exact for any 64-bit plane sum, so sums need no reduction
 * first — and C holds up to `lazy` terms before a reduction pass. A
 * Shoup product by pair (0, 0)'s weight 2^0 = 1 reduces. Moduli above
 * 2^62 (lazy < 2) add reduced terms with add_mod instead.
 */
template <class T>
void
recombine(u64 *c, const T *p, size_t count, size_t n, size_t pairs,
          const Weights &wt)
{
    const u64 *q = wt.q;
    const auto cells = [&](auto &&f) {
        for (size_t i = 0; i < count; i += n)
            for (size_t j = 0, je = std::min(n, count - i); j < je; ++j)
                f(i + j, j);
    };
    const auto reduce = [&](size_t e, size_t j) {
        c[e] = mul_shoup(c[e], 1, wt.ws[j], q[j]);
    };
    u64 terms = 0;
    for (size_t pair = 0; pair < pairs; ++pair) {
        const T *pp = p + pair * count;
        const u64 *w = wt.w + pair * n;
        const u64 *ws = wt.ws + pair * n;
        const auto term = [&](size_t e, size_t j) {
            return mul_shoup_lazy(to_u64(pp[e]), w[j], ws[j], q[j]);
        };
        if (wt.lazy < 2) {
            cells([&](size_t e, size_t j) {
                u64 t = term(e, j);
                t = t >= q[j] ? t - q[j] : t;
                c[e] = pair == 0 ? t : add_mod(c[e], t, q[j]);
            });
            continue;
        }
        if (terms == wt.lazy) {
            cells(reduce);
            terms = 1;
        }
        if (pair == 0)
            cells([&](size_t e, size_t j) { c[e] = term(e, j); });
        else
            cells([&](size_t e, size_t j) { c[e] += term(e, j); });
        ++terms;
    }
    if (wt.lazy >= 2)
        cells(reduce);
}

// Rows per recombination tile: the tile's plane products stay in L1/L2
// between the GEMMs that write them and the pass that folds them.
constexpr size_t kMC = 32;

/**
 * Shared skeleton of the single-GEMM sliced engines: slice both
 * operands (B's planes memoised when it is static), then per tile of
 * output rows run every plane pair's GEMM and fold the products into
 * C. Column j reduces modulo mods[j · mod_stride] (stride 0: one
 * modulus for every column).
 * Each output element accumulates its k-products inside one plane GEMM
 * (exact by plan construction) and its planes in exact modular
 * arithmetic inside one row tile, so the result is bit-identical for
 * any tiling and thread count.
 */
template <class T>
void
sliced_matmul_impl(const u64 *a, OperandRef b, u64 *c, size_t m, size_t n,
                   size_t k, const SplitPlan &plan, const Modulus *mods,
                   size_t mod_stride)
{
    Workspace::Frame frame;
    const T *ap = operand_planes<T>(a, m * k, plan.a_planes,
                                    plan.a_plane_bits, frame);
    const T *bp = operand_planes<T>(b, k * n, plan.b_planes,
                                    plan.b_plane_bits, frame);
    const size_t pairs = static_cast<size_t>(plan.products());
    const Weights wt = column_weights(frame, plan, n, [&](size_t j) {
        return mods[j * mod_stride].value();
    });
    parallel_for(
        0, m,
        [&](size_t rb, size_t re) {
            Workspace::Frame wframe;
            T *prod = wframe.alloc<T>(pairs * std::min(kMC, re - rb) * n);
            for (size_t i0 = rb; i0 < re; i0 += kMC) {
                const size_t rows = std::min(kMC, re - i0);
                for (size_t pair = 0; pair < pairs; ++pair) {
                    // The per-plane GEMM the TCU executes: pure T
                    // arithmetic, exact by construction of the plan.
                    const T *am = ap + (pair / plan.b_planes) * m * k +
                                  i0 * k;
                    const T *bm = bp + (pair % plan.b_planes) * k * n;
                    plane_gemm_rows(am, bm, prod + pair * rows * n, rows,
                                    n, k);
                }
                recombine(c + i0 * n, prod, rows * n, n, pairs, wt);
            }
        },
        row_grain(m, n, k * pairs));
}

} // namespace

void
fp64_sliced_matmul_plan(const u64 *a, OperandRef b, u64 *c, size_t m,
                        size_t n, size_t k, const Modulus &q,
                        const SplitPlan &plan)
{
    obs::Span span("fp64_gemm", obs::cat::gemm);
    note_gemm(m, n, k);
    sliced_matmul_impl<double>(a, b, c, m, n, k, plan, &q, 0);
}

void
fp64_sliced_matmul(const u64 *a, OperandRef b, u64 *c, size_t m, size_t n,
                   size_t k, const Modulus &q)
{
    const SplitPlan plan = choose_fp64_split(q.bits(), q.bits(), k);
    fp64_sliced_matmul_plan(a, b, c, m, n, k, q, plan);
}

void
int8_sliced_matmul(const u64 *a, OperandRef b, u64 *c, size_t m, size_t n,
                   size_t k, const Modulus &q)
{
    obs::Span span("int8_gemm", obs::cat::gemm);
    note_gemm(m, n, k);
    // INT32 accumulation, as on the INT8 tensor core.
    const SplitPlan plan = choose_int8_split(q.bits(), q.bits(), k);
    sliced_matmul_impl<i32>(a, b, c, m, n, k, plan, &q, 0);
}

void
scalar_matmul_cols(const u64 *a, OperandRef b, u64 *c, size_t m, size_t n,
                   size_t k, const std::vector<Modulus> &col_mods)
{
    obs::Span span("scalar_gemm_cols", obs::cat::gemm);
    note_gemm(m, n, k);
    NEO_CHECK(col_mods.size() == n, "column modulus count mismatch");
    // Exact integer accumulation: operands are < 2^63 and K is small
    // (gadget dimensions), so the u128 accumulator cannot overflow for
    // K ≤ 64 at 60-bit words.
    NEO_CHECK(k <= 64, "K too large for exact u128 accumulation");
    parallel_for(
        0, m,
        [&](size_t rb, size_t re) {
            for (size_t i = rb; i < re; ++i) {
                for (size_t j = 0; j < n; ++j) {
                    u128 acc = 0;
                    for (size_t t = 0; t < k; ++t)
                        acc += static_cast<u128>(a[i * k + t]) *
                               b.data[t * n + j];
                    c[i * n + j] = col_mods[j].reduce128(acc);
                }
            }
        },
        row_grain(m, n, k));
}

void
fp64_sliced_matmul_cols(const u64 *a, OperandRef b, u64 *c, size_t m,
                        size_t n, size_t k,
                        const std::vector<Modulus> &col_mods)
{
    obs::Span span("fp64_gemm_cols", obs::cat::gemm);
    note_gemm(m, n, k);
    NEO_CHECK(col_mods.size() == n, "column modulus count mismatch");
    const int wa = operand_bits(a, m * k);
    const int wb = operand_bits(b, k * n);
    sliced_matmul_impl<double>(
        a, b, c, m, n, k,
        choose_fp64_split(std::max(wa, 1), std::max(wb, 1), k),
        col_mods.data(), 1);
}

void
int8_sliced_matmul_cols(const u64 *a, OperandRef b, u64 *c, size_t m,
                        size_t n, size_t k,
                        const std::vector<Modulus> &col_mods)
{
    obs::Span span("int8_gemm_cols", obs::cat::gemm);
    note_gemm(m, n, k);
    NEO_CHECK(col_mods.size() == n, "column modulus count mismatch");
    const int wa = operand_bits(a, m * k);
    const int wb = operand_bits(b, k * n);
    sliced_matmul_impl<i32>(
        a, b, c, m, n, k,
        choose_int8_split(std::max(wa, 1), std::max(wb, 1), k),
        col_mods.data(), 1);
}

void
scalar_matmul_sites(const u64 *a, OperandRef b, u64 *c, size_t sites,
                    size_t m, size_t n, size_t k,
                    const std::vector<Modulus> &mods)
{
    obs::Span span("scalar_gemm_sites", obs::cat::gemm);
    note_gemm(sites * m, n, k);
    NEO_CHECK(!mods.empty(), "site modulus list empty");
    const size_t nmods = mods.size();
    parallel_for(
        0, sites,
        [&](size_t sb, size_t se) {
            for (size_t s = sb; s < se; ++s) {
                const Modulus &qm = mods[s % nmods];
                const u64 *as = a + s * m * k;
                const u64 *bs = b.data + s * k * n;
                u64 *cs = c + s * m * n;
                for (size_t i = 0; i < m; ++i) {
                    for (size_t j = 0; j < n; ++j) {
                        u128 acc = 0;
                        // Fold every other iteration: products are
                        // < 2^126, so the accumulator stays < 2^128.
                        for (size_t t = 0; t < k; ++t) {
                            acc += static_cast<u128>(as[i * k + t]) *
                                   bs[t * n + j];
                            if (t & 1)
                                acc = qm.reduce128(acc);
                        }
                        cs[i * n + j] = qm.reduce128(acc);
                    }
                }
            }
        },
        row_chunk_grain(sites, m * n * k));
}

namespace {

/**
 * Shared skeleton of the sliced per-site GEMMs: decompose both full
 * tensors into planes once (a static B keeps one plane set covering
 * every site), then per site run the plane micro-GEMMs and
 * recombine with the site's modulus. Site s reduces mod
 * mods[s mod nmods], so each run of nmods consecutive sites — one
 * group, nmods·m·n contiguous outputs — is a row whose column j reduces
 * mod mods[j / (m·n)]: the column-modulus recombination of the GEMM
 * engines, over tiles of groups. Every output element accumulates its
 * k-products in ascending order and its planes in exact modular
 * arithmetic, so results are bit-identical to calling the matching
 * single-site engine once per site.
 */
template <class T>
void
sliced_matmul_sites_impl(const u64 *a, OperandRef b, u64 *c, size_t sites,
                         size_t m, size_t n, size_t k,
                         const std::vector<Modulus> &mods,
                         const SplitPlan &plan)
{
    const size_t nmods = mods.size();
    const size_t mn = m * n;
    Workspace::Frame frame;
    const T *ap = operand_planes<T>(a, sites * m * k, plan.a_planes,
                                    plan.a_plane_bits, frame);
    const T *bp = operand_planes<T>(b, sites * k * n, plan.b_planes,
                                    plan.b_plane_bits, frame);
    const size_t pairs = static_cast<size_t>(plan.products());
    const size_t width = nmods * mn;
    const Weights wt = column_weights(frame, plan, width, [&](size_t j) {
        return mods[j / mn].value();
    });

    const size_t groups = ceil_div(sites, nmods);
    parallel_for(
        0, groups,
        [&](size_t gb, size_t ge) {
            Workspace::Frame wframe;
            T *prod =
                wframe.alloc<T>(pairs * std::min(kMC, ge - gb) * width);
            for (size_t g0 = gb; g0 < ge; g0 += kMC) {
                const size_t s0 = g0 * nmods;
                const size_t s1 =
                    std::min(sites, std::min(ge, g0 + kMC) * nmods);
                const size_t count = (s1 - s0) * mn;
                for (size_t pair = 0; pair < pairs; ++pair) {
                    const T *ap_pair =
                        ap + (pair / plan.b_planes) * sites * m * k;
                    const T *bp_pair =
                        bp + (pair % plan.b_planes) * sites * k * n;
                    for (size_t s = s0; s < s1; ++s) {
                        const T *am = ap_pair + s * m * k;
                        const T *bm = bp_pair + s * k * n;
                        T *ps = prod + pair * count + (s - s0) * mn;
                        for (size_t i = 0; i < m; ++i)
                            for (size_t j = 0; j < n; ++j) {
                                T acc = 0;
                                for (size_t t = 0; t < k; ++t)
                                    acc += am[i * k + t] * bm[t * n + j];
                                ps[i * n + j] = acc;
                            }
                    }
                }
                recombine(c + s0 * mn, prod, count, width, pairs, wt);
            }
        },
        row_chunk_grain(groups, nmods * pairs * mn * k));
}

} // namespace

void
fp64_sliced_matmul_sites(const u64 *a, OperandRef b, u64 *c, size_t sites,
                         size_t m, size_t n, size_t k,
                         const std::vector<Modulus> &mods)
{
    obs::Span span("fp64_gemm_sites", obs::cat::gemm);
    note_gemm(sites * m, n, k);
    NEO_CHECK(!mods.empty(), "site modulus list empty");
    const int wa = operand_bits(a, sites * m * k);
    const int wb = operand_bits(b, sites * k * n);
    sliced_matmul_sites_impl<double>(
        a, b, c, sites, m, n, k, mods,
        choose_fp64_split(std::max(wa, 1), std::max(wb, 1), k));
}

void
int8_sliced_matmul_sites(const u64 *a, OperandRef b, u64 *c, size_t sites,
                         size_t m, size_t n, size_t k,
                         const std::vector<Modulus> &mods)
{
    obs::Span span("int8_gemm_sites", obs::cat::gemm);
    note_gemm(sites * m, n, k);
    NEO_CHECK(!mods.empty(), "site modulus list empty");
    const int wa = operand_bits(a, sites * m * k);
    const int wb = operand_bits(b, sites * k * n);
    sliced_matmul_sites_impl<i32>(
        a, b, c, sites, m, n, k, mods,
        choose_int8_split(std::max(wa, 1), std::max(wb, 1), k));
}

const ModSiteMatMulFn &
scalar_site_matmul()
{
    static const ModSiteMatMulFn fn = scalar_matmul_sites;
    return fn;
}

const ModSiteMatMulFn &
fp64_tcu_site_matmul()
{
    static const ModSiteMatMulFn fn = fp64_sliced_matmul_sites;
    return fn;
}

const ModSiteMatMulFn &
int8_tcu_site_matmul()
{
    static const ModSiteMatMulFn fn = int8_sliced_matmul_sites;
    return fn;
}

const ModColMatMulFn &
scalar_col_matmul()
{
    static const ModColMatMulFn fn = scalar_matmul_cols;
    return fn;
}

const ModColMatMulFn &
fp64_tcu_col_matmul()
{
    static const ModColMatMulFn fn = fp64_sliced_matmul_cols;
    return fn;
}

const ModColMatMulFn &
int8_tcu_col_matmul()
{
    static const ModColMatMulFn fn = int8_sliced_matmul_cols;
    return fn;
}

const ModMatMulFn &
fp64_tcu_matmul()
{
    static const ModMatMulFn fn = fp64_sliced_matmul;
    return fn;
}

const ModMatMulFn &
int8_tcu_matmul()
{
    static const ModMatMulFn fn = int8_sliced_matmul;
    return fn;
}

} // namespace neo
