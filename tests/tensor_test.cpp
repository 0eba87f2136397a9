#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "common/random.h"
#include "obs/obs.h"
#include "poly/matrix_ntt.h"
#include "rns/primes.h"
#include "tensor/bitslice.h"
#include "tensor/gemm.h"
#include "tensor/layout.h"

namespace neo {
namespace {

TEST(BitSlice, Fp64SplitMatchesPaperExamples)
{
    // §3.4: 36-bit operands, K = 16 -> keep A whole, slice B into
    // three 12-bit planes; 3 FP64 GEMMs total.
    SplitPlan p36 = choose_fp64_split(36, 36, 16);
    EXPECT_EQ(p36.products(), 3);
    EXPECT_EQ(p36.a_planes, 1);
    EXPECT_EQ(p36.b_planes, 3);
    EXPECT_LE(p36.a_plane_bits + p36.b_plane_bits + 4, 53);

    // 48-bit operands -> 2 x 2 = 4 GEMMs ("FP64 complexity of 4").
    SplitPlan p48 = choose_fp64_split(48, 48, 16);
    EXPECT_EQ(p48.products(), 4);
    EXPECT_EQ(p48.a_planes, 2);
    EXPECT_EQ(p48.b_planes, 2);
    EXPECT_LE(p48.a_plane_bits + p48.b_plane_bits + 4, 53);
}

TEST(BitSlice, Int8SplitMatchesPaperExamples)
{
    // §3.4: 36-bit -> 5 planes each side -> 25 GEMMs; 48-bit -> 36.
    EXPECT_EQ(choose_int8_split(36, 36, 16).products(), 25);
    EXPECT_EQ(choose_int8_split(48, 48, 16).products(), 36);
}

TEST(BitSlice, Fp64SplitAlwaysExact)
{
    for (int w : {30, 36, 42, 48, 54, 60, 64}) {
        for (size_t k : {4u, 8u, 16u, 36u}) {
            SplitPlan p = choose_fp64_split(w, w, k);
            int kbits = k <= 1 ? 0 : bit_size(k - 1);
            EXPECT_LE(p.a_plane_bits + p.b_plane_bits + kbits, 53)
                << "w=" << w << " k=" << k;
            EXPECT_GE(p.a_planes * p.a_plane_bits, w);
            EXPECT_GE(p.b_planes * p.b_plane_bits, w);
        }
    }
}

TEST(BitSlice, PlanesReconstructValue)
{
    Rng rng(1);
    std::vector<u64> in(32);
    for (auto &x : in)
        x = rng.next() & ((1ULL << 48) - 1);
    SplitPlan p = choose_fp64_split(48, 48, 16);
    std::vector<double> planes(static_cast<size_t>(p.a_planes) * 32);
    slice_to_f64(in.data(), 32, p.a_planes, p.a_plane_bits, planes.data());
    for (size_t i = 0; i < 32; ++i) {
        u64 v = 0;
        for (int pl = p.a_planes - 1; pl >= 0; --pl) {
            v <<= p.a_plane_bits;
            v += static_cast<u64>(planes[static_cast<size_t>(pl) * 32 + i]);
        }
        EXPECT_EQ(v, in[i]);
    }
}

class SlicedGemmTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SlicedGemmTest, Fp64PathBitExactAgainstScalar)
{
    const int bits = GetParam();
    Modulus q(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    Rng rng(bits);
    const size_t m = 24, n = 16, k = 16;
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    std::vector<u64> ref(m * n), got(m * n);
    scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
    fp64_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
}

TEST_P(SlicedGemmTest, Int8PathBitExactAgainstScalar)
{
    const int bits = GetParam();
    Modulus q(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    Rng rng(bits + 100);
    const size_t m = 8, n = 8, k = 16;
    auto a = rng.uniform_vec(m * k, q.value());
    auto b = rng.uniform_vec(k * n, q.value());
    std::vector<u64> ref(m * n), got(m * n);
    scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
    int8_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
}

// 62 bits: lazily summed recombination with intermediate reductions;
// 63 bits: moduli above 2^62, recombined term by term.
INSTANTIATE_TEST_SUITE_P(WordSizes, SlicedGemmTest,
                         ::testing::Values(30, 36, 48, 60, 62, 63));

TEST(SlicedGemm, MaximalOperandsStayExact)
{
    // Adversarial case: all entries q-1, the largest possible values.
    Modulus q(generate_ntt_primes(48, 1, 1 << 10)[0]);
    const size_t m = 4, n = 4, k = 16;
    std::vector<u64> a(m * k, q.value() - 1), b(k * n, q.value() - 1);
    std::vector<u64> ref(m * n), got(m * n);
    scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
    fp64_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
    int8_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
    EXPECT_EQ(got, ref);
}

TEST(SlicedGemm, OddShapes)
{
    Modulus q(generate_ntt_primes(36, 1, 1 << 10)[0]);
    Rng rng(7);
    for (auto [m, n, k] : {std::tuple<size_t, size_t, size_t>{1, 1, 1},
                           {3, 5, 7},
                           {17, 9, 4},
                           {2, 33, 8}}) {
        auto a = rng.uniform_vec(m * k, q.value());
        auto b = rng.uniform_vec(k * n, q.value());
        std::vector<u64> ref(m * n), got(m * n);
        scalar_mod_matmul(a.data(), b.data(), ref.data(), m, n, k, q);
        fp64_sliced_matmul(a.data(), b.data(), got.data(), m, n, k, q);
        EXPECT_EQ(got, ref) << m << "x" << n << "x" << k;
    }
}

TEST(SlicedGemm, SiteAndColumnEnginesMatchScalar)
{
    // Mixed moduli. With a 36-bit modulus alone every element is one
    // lazy sum; with 62 bits in the mix (and no 63) the sum is reduced
    // between lazy terms; a 63-bit modulus adds reduced terms. The
    // site count leaves a partial group of the modulus cycle and spans
    // several recombination tiles.
    std::vector<Modulus> all;
    for (int bits : {36, 48, 62, 63})
        all.emplace_back(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    const u64 bound = all[0].value();
    Rng rng(11);
    for (auto [first, count] : {std::pair<size_t, size_t>{0, 1},
                                {0, 3},
                                {1, 3}}) {
        const std::vector<Modulus> mods(all.begin() + first,
                                        all.begin() + first + count);
        const size_t sites = 203, m = 2, n = 3, k = 4;
        auto a = rng.uniform_vec(sites * m * k, bound);
        auto b = rng.uniform_vec(sites * k * n, bound);
        std::vector<u64> ref(sites * m * n), got(sites * m * n);
        scalar_matmul_sites(a.data(), b.data(), ref.data(), sites, m, n,
                            k, mods);
        fp64_sliced_matmul_sites(a.data(), b.data(), got.data(), sites, m,
                                 n, k, mods);
        EXPECT_EQ(got, ref) << "fp64 sites " << first << "+" << count;
        int8_sliced_matmul_sites(a.data(), b.data(), got.data(), sites, m,
                                 n, k, mods);
        EXPECT_EQ(got, ref) << "int8 sites " << first << "+" << count;

        const size_t rows = 70;
        auto ca = rng.uniform_vec(rows * k, bound);
        auto cb = rng.uniform_vec(k * count, bound);
        std::vector<u64> cref(rows * count), cgot(rows * count);
        scalar_matmul_cols(ca.data(), cb.data(), cref.data(), rows, count,
                           k, mods);
        fp64_sliced_matmul_cols(ca.data(), cb.data(), cgot.data(), rows,
                                count, k, mods);
        EXPECT_EQ(cgot, cref) << "fp64 cols " << first << "+" << count;
        int8_sliced_matmul_cols(ca.data(), cb.data(), cgot.data(), rows,
                                count, k, mods);
        EXPECT_EQ(cgot, cref) << "int8 cols " << first << "+" << count;
    }
}

TEST(SlicedGemm, StaticOperandMatchesRawPointer)
{
    // Each sliced entry point gives the same product whether B is a
    // raw pointer (sliced on every call) or a StaticOperand (sliced on
    // the first call, then served from the owner), and both equal the
    // scalar reference. A fresh owner misses once, then hits.
    std::vector<Modulus> mods;
    for (int bits : {36, 48, 62})
        mods.emplace_back(generate_ntt_primes(bits, 1, 1 << 10)[0]);
    const Modulus &q = mods[1];
    const std::vector<Modulus> col_mods(mods.begin(), mods.begin() + 3);
    const size_t m = 37, n = 3, k = 16, sites = 41;
    using Fn = std::function<void(const u64 *, OperandRef, u64 *)>;
    struct Case
    {
        const char *name;
        size_t a_len, b_len, c_len;
        Fn ref, engine;
    };
    const Case cases[] = {
        {"fp64", m * k, k * n, m * n,
         [&](const u64 *a, OperandRef b, u64 *c) {
             scalar_mod_matmul(a, b, c, m, n, k, q);
         },
         [&](const u64 *a, OperandRef b, u64 *c) {
             fp64_sliced_matmul(a, b, c, m, n, k, q);
         }},
        {"int8", m * k, k * n, m * n,
         [&](const u64 *a, OperandRef b, u64 *c) {
             scalar_mod_matmul(a, b, c, m, n, k, q);
         },
         [&](const u64 *a, OperandRef b, u64 *c) {
             int8_sliced_matmul(a, b, c, m, n, k, q);
         }},
        {"fp64 cols", m * k, k * n, m * n,
         [&](const u64 *a, OperandRef b, u64 *c) {
             scalar_matmul_cols(a, b, c, m, n, k, col_mods);
         },
         [&](const u64 *a, OperandRef b, u64 *c) {
             fp64_sliced_matmul_cols(a, b, c, m, n, k, col_mods);
         }},
        {"int8 cols", m * k, k * n, m * n,
         [&](const u64 *a, OperandRef b, u64 *c) {
             scalar_matmul_cols(a, b, c, m, n, k, col_mods);
         },
         [&](const u64 *a, OperandRef b, u64 *c) {
             int8_sliced_matmul_cols(a, b, c, m, n, k, col_mods);
         }},
        {"fp64 sites", sites * 2 * k, sites * k * n, sites * 2 * n,
         [&](const u64 *a, OperandRef b, u64 *c) {
             scalar_matmul_sites(a, b, c, sites, 2, n, k, mods);
         },
         [&](const u64 *a, OperandRef b, u64 *c) {
             fp64_sliced_matmul_sites(a, b, c, sites, 2, n, k, mods);
         }},
        {"int8 sites", sites * 2 * k, sites * k * n, sites * 2 * n,
         [&](const u64 *a, OperandRef b, u64 *c) {
             scalar_matmul_sites(a, b, c, sites, 2, n, k, mods);
         },
         [&](const u64 *a, OperandRef b, u64 *c) {
             int8_sliced_matmul_sites(a, b, c, sites, 2, n, k, mods);
         }},
    };
    Rng rng(23);
    for (const Case &cs : cases) {
        SCOPED_TRACE(cs.name);
        const auto a = rng.uniform_vec(cs.a_len, mods[0].value());
        const auto b = rng.uniform_vec(cs.b_len, mods[0].value());
        const StaticOperand owned(b);
        std::vector<u64> ref(cs.c_len), raw(cs.c_len), cold(cs.c_len),
            warm(cs.c_len);
        cs.ref(a.data(), b.data(), ref.data());
        obs::Scope scope;
        cs.engine(a.data(), b.data(), raw.data());
        EXPECT_EQ(scope.counter("gemm.plane_cache.miss"), 0u);
        cs.engine(a.data(), owned, cold.data());
        EXPECT_EQ(scope.counter("gemm.plane_cache.miss"), 1u);
        EXPECT_EQ(scope.counter("gemm.plane_cache.hit"), 0u);
        cs.engine(a.data(), owned, warm.data());
        EXPECT_EQ(scope.counter("gemm.plane_cache.miss"), 1u);
        EXPECT_EQ(scope.counter("gemm.plane_cache.hit"), 1u);
        EXPECT_EQ(raw, ref);
        EXPECT_EQ(cold, ref);
        EXPECT_EQ(warm, ref);
    }
}

TEST(SlicedGemm, MatrixNttThroughFp64TcuMatchesScalar)
{
    // The paper's NTT-on-TCU: radix-16 NTT with all matmuls routed
    // through the FP64-sliced GEMM must equal the radix-2 reference.
    const size_t n = 1024;
    Modulus q(generate_ntt_primes(48, 1, n)[0]);
    NttTables t(n, q);
    MatrixNtt mntt(t, 16);
    Rng rng(11);
    auto a = rng.uniform_vec(n, q.value());
    auto ref = a;
    t.forward(ref.data());
    auto got = a;
    mntt.forward(got.data(), fp64_tcu_matmul());
    EXPECT_EQ(got, ref);
    mntt.inverse(got.data(), fp64_tcu_matmul());
    EXPECT_EQ(got, a);
}

TEST(SlicedGemm, MatrixNttThroughInt8TcuMatchesScalar)
{
    const size_t n = 256;
    Modulus q(generate_ntt_primes(36, 1, n)[0]);
    NttTables t(n, q);
    MatrixNtt mntt(t, 16);
    Rng rng(12);
    auto a = rng.uniform_vec(n, q.value());
    auto ref = a;
    t.forward(ref.data());
    auto got = a;
    mntt.forward(got.data(), int8_tcu_matmul());
    EXPECT_EQ(got, ref);
}

TEST(Layout, Reorder3dRoundTrip)
{
    const size_t d0 = 3, d1 = 4, d2 = 5;
    Rng rng(2);
    auto in = rng.uniform_vec(d0 * d1 * d2, 1000);
    std::vector<u64> mid(in.size()), back(in.size());
    reorder_3d_swap02(in.data(), d0, d1, d2, mid.data());
    // Element check: out[l][b][i] == in[i][b][l].
    for (size_t i = 0; i < d0; ++i)
        for (size_t b = 0; b < d1; ++b)
            for (size_t l = 0; l < d2; ++l)
                EXPECT_EQ(mid[(l * d1 + b) * d0 + i],
                          in[(i * d1 + b) * d2 + l]);
    reorder_3d_swap02(mid.data(), d2, d1, d0, back.data());
    EXPECT_EQ(back, in);
}

TEST(Layout, Reorder4dSwap03RoundTrip)
{
    const size_t d0 = 2, d1 = 3, d2 = 4, d3 = 5;
    Rng rng(3);
    auto in = rng.uniform_vec(d0 * d1 * d2 * d3, 1000);
    std::vector<u64> mid(in.size()), back(in.size());
    reorder_4d_swap03(in.data(), d0, d1, d2, d3, mid.data());
    reorder_4d_swap03(mid.data(), d3, d1, d2, d0, back.data());
    EXPECT_EQ(back, in);
}

TEST(Layout, Reorder4dReverseRoundTrip)
{
    const size_t d0 = 2, d1 = 3, d2 = 4, d3 = 5;
    Rng rng(4);
    auto in = rng.uniform_vec(d0 * d1 * d2 * d3, 1000);
    std::vector<u64> mid(in.size()), back(in.size());
    reorder_4d_reverse(in.data(), d0, d1, d2, d3, mid.data());
    reorder_4d_reverse(mid.data(), d3, d2, d1, d0, back.data());
    EXPECT_EQ(back, in);
}

} // namespace
} // namespace neo
