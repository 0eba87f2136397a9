#include <gtest/gtest.h>

#include "common/random.h"
#include "rns/base_convert.h"
#include "rns/basis.h"
#include "rns/partition.h"
#include "rns/primes.h"

namespace neo {
namespace {

TEST(Primes, MillerRabinKnownValues)
{
    EXPECT_FALSE(is_prime(0));
    EXPECT_FALSE(is_prime(1));
    EXPECT_TRUE(is_prime(2));
    EXPECT_TRUE(is_prime(3));
    EXPECT_FALSE(is_prime(4));
    EXPECT_TRUE(is_prime(65537));
    EXPECT_FALSE(is_prime(65536));
    EXPECT_TRUE(is_prime(1000000007ULL));
    EXPECT_FALSE(is_prime(1000000007ULL * 998244353ULL));
    EXPECT_TRUE(is_prime(18446744073709551557ULL)); // largest 64-bit prime
}

TEST(Primes, GeneratedPrimesAreNttFriendly)
{
    const u64 n = 1 << 12;
    for (int bits : {30, 36, 48, 60}) {
        auto primes = generate_ntt_primes(bits, 5, n);
        ASSERT_EQ(primes.size(), 5u);
        for (u64 p : primes) {
            EXPECT_TRUE(is_prime(p));
            EXPECT_EQ(bit_size(p), bits);
            EXPECT_EQ((p - 1) % (2 * n), 0u);
        }
        // Distinct.
        for (size_t i = 0; i < primes.size(); ++i)
            for (size_t j = i + 1; j < primes.size(); ++j)
                EXPECT_NE(primes[i], primes[j]);
    }
}

TEST(Primes, AvoidListRespected)
{
    const u64 n = 1 << 10;
    auto first = generate_ntt_primes(36, 3, n);
    auto second = generate_ntt_primes(36, 3, n, first);
    for (u64 p : second)
        for (u64 a : first)
            EXPECT_NE(p, a);
}

TEST(Primes, PrimitiveRootHasExactOrder)
{
    auto primes = generate_ntt_primes(36, 2, 1 << 12);
    for (u64 q : primes) {
        const u64 two_n = 2ULL << 12;
        u64 g = find_primitive_root(q, two_n);
        EXPECT_EQ(pow_mod(g, two_n, q), 1u);
        EXPECT_EQ(pow_mod(g, two_n / 2, q), q - 1);
    }
}

TEST(Modulus, MulAddSubPow)
{
    auto primes = generate_ntt_primes(48, 1, 1 << 10);
    Modulus q(primes[0]);
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        u64 a = rng.uniform(q.value());
        u64 b = rng.uniform(q.value());
        EXPECT_EQ(q.mul(a, b), mul_mod(a, b, q.value()));
        EXPECT_EQ(q.add(a, b), (a + b) % q.value());
        EXPECT_EQ(q.sub(a, q.add(a, b)),
                  b == 0 ? 0 : q.value() - b);
    }
    EXPECT_EQ(q.mul(q.inv(12345), 12345), 1u);
}

TEST(Modulus, BarrettMultiplicationMatchesExact)
{
    // Modulus::mul and reduce are Barrett reductions: they must equal
    // the u128 remainder for every a < 2^64 once the other operand is
    // below q, on both sides of the 2^62 lazy-NTT limit.
    Rng rng(7);
    for (int bits : {30, 36, 48, 60, 62, 63}) {
        auto primes = generate_ntt_primes(bits, 1, 1 << 10);
        Modulus q(primes[0]);
        const u64 qv = q.value();
        const auto want = [&](u64 a, u64 b) {
            return static_cast<u64>(static_cast<u128>(a) * b % qv);
        };
        for (int i = 0; i < 2000; ++i) {
            u64 a = i % 2 ? rng.uniform(qv) : rng.next();
            if (i < 4)
                a = ~0ULL - static_cast<u64>(i);
            const u64 b = i < 8 ? qv - 1 - static_cast<u64>(i % 2)
                                : rng.uniform(qv);
            EXPECT_EQ(q.mul(a, b), want(a, b))
                << "bits=" << bits << " a=" << a << " b=" << b;
            EXPECT_EQ(q.mul(b, a), want(a, b))
                << "bits=" << bits << " a=" << a << " b=" << b;
            EXPECT_EQ(q.reduce(a), a % qv)
                << "bits=" << bits << " a=" << a;
        }
        // Extremes.
        EXPECT_EQ(q.mul(qv - 1, qv - 1), want(qv - 1, qv - 1));
        EXPECT_EQ(q.mul(0, qv - 1), 0u);
        EXPECT_EQ(q.mul(1, 1), 1u);
        EXPECT_EQ(q.reduce(qv), 0u);
        EXPECT_EQ(q.reduce(qv - 1), qv - 1);
        // Both operands at or above q break the a·b < q·2^64 bound.
        EXPECT_THROW(q.mul(qv, qv), std::logic_error);
    }
}

TEST(Modulus, BarrettReduce128Range)
{
    auto primes = generate_ntt_primes(48, 1, 1 << 10);
    Modulus q(primes[0]);
    Rng rng(8);
    for (int i = 0; i < 300; ++i) {
        // Any x < q * 2^64.
        u128 x = (static_cast<u128>(rng.uniform(q.value())) << 64) ^
                 rng.next();
        EXPECT_EQ(q.barrett_reduce(x),
                  static_cast<u64>(x % q.value()));
    }
}

TEST(Modulus, ShoupMultiplication)
{
    // The sliced GEMMs feed raw plane sums and lazy partial sums into
    // mul_shoup: it must be exact for every 64-bit a, not just a < q,
    // and mul_shoup_lazy must stay congruent and below 2q.
    Rng rng(2);
    for (int bits : {30, 36, 40, 48, 52, 56, 60, 61, 62, 63}) {
        Modulus q(generate_ntt_primes(bits, 1, 1 << 10)[0]);
        const u64 qv = q.value();
        for (int i = 0; i < 500; ++i) {
            const u64 w = i == 0 ? 1 : i == 1 ? qv - 1 : rng.uniform(qv);
            u64 a = i % 2 ? rng.uniform(qv) : rng.next();
            if (i < 4)
                a = ~0ULL - static_cast<u64>(i);
            const u64 ws = shoup_precompute(w, qv);
            const u64 want =
                static_cast<u64>(static_cast<u128>(a) * w % qv);
            EXPECT_EQ(mul_shoup(a, w, ws, qv), want)
                << bits << " a=" << a << " w=" << w;
            const u64 lazy = mul_shoup_lazy(a, w, ws, qv);
            EXPECT_LT(lazy, 2 * qv) << bits;
            EXPECT_EQ(lazy % qv, want) << bits;
        }
    }
}

class RnsBasisTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RnsBasisTest, PuncturedProductsConsistent)
{
    const int bits = GetParam();
    auto primes = generate_ntt_primes(bits, 4, 1 << 10);
    RnsBasis basis(primes);
    EXPECT_EQ(basis.size(), 4u);
    EXPECT_NEAR(basis.log2_product(), 4.0 * bits, 4.0);
    for (size_t i = 0; i < basis.size(); ++i) {
        // (B/b_i) * punc_inv(i) == 1 mod b_i.
        u64 prod = basis.punc_prod_mod(i, basis[i]);
        EXPECT_EQ(basis[i].mul(prod, basis.punc_inv(i)), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(WordSizes, RnsBasisTest,
                         ::testing::Values(30, 36, 48, 60));

TEST(RnsBasis, SliceAndConcat)
{
    auto primes = generate_ntt_primes(36, 6, 1 << 10);
    RnsBasis basis(primes);
    RnsBasis lo = basis.slice(0, 4);
    RnsBasis hi = basis.slice(4, 2);
    RnsBasis back = lo.concat(hi);
    EXPECT_EQ(back.size(), 6u);
    for (size_t i = 0; i < 6; ++i)
        EXPECT_EQ(back[i].value(), basis[i].value());
    EXPECT_THROW(basis.slice(4, 4), std::invalid_argument);
    EXPECT_THROW(lo.concat(lo), std::invalid_argument);
}

TEST(BaseConverter, ApproxConversionIsCorrectUpToBMultiple)
{
    auto p1 = generate_ntt_primes(30, 3, 1 << 10);
    auto p2 = generate_ntt_primes(31, 3, 1 << 10);
    RnsBasis from(p1), to(p2);
    BaseConverter conv(from, to);
    Rng rng(3);
    const size_t n = 16;

    // Build random values < B as RNS residues.
    std::vector<u64> in(3 * n), out(3 * n);
    std::vector<u128> truth(n);
    u128 big = 1;
    for (u64 p : p1)
        big *= p;
    for (size_t l = 0; l < n; ++l) {
        u128 v = (static_cast<u128>(rng.next()) << 32) ^ rng.next();
        v %= big;
        truth[l] = v;
        for (size_t i = 0; i < 3; ++i)
            in[i * n + l] = static_cast<u64>(v % p1[i]);
    }
    conv.convert_approx(in.data(), n, out.data());
    for (size_t l = 0; l < n; ++l) {
        for (size_t j = 0; j < 3; ++j) {
            u64 got = out[j * n + l];
            // got == truth + u*B mod t_j for some 0 <= u < 3.
            bool ok = false;
            for (u64 u = 0; u < 3; ++u) {
                u128 cand = (truth[l] + u * big) % p2[j];
                if (got == static_cast<u64>(cand))
                    ok = true;
            }
            EXPECT_TRUE(ok) << "coef " << l << " limb " << j;
        }
    }
}

TEST(BaseConverter, ExactConversionRecoversCenteredValue)
{
    auto p1 = generate_ntt_primes(30, 3, 1 << 10);
    auto p2 = generate_ntt_primes(31, 4, 1 << 10);
    RnsBasis from(p1), to(p2);
    BaseConverter conv(from, to);
    Rng rng(4);
    const size_t n = 64;

    u128 big = 1;
    for (u64 p : p1)
        big *= p;

    std::vector<u64> in(3 * n), out(4 * n);
    std::vector<i128> truth(n);
    for (size_t l = 0; l < n; ++l) {
        // Centered values spanning nearly the full (-B/2, B/2) range.
        u128 mag = ((static_cast<u128>(rng.next()) << 32) ^ rng.next()) %
                   (big / 2 - 1);
        i128 v = (rng.next() & 1) ? -static_cast<i128>(mag)
                                  : static_cast<i128>(mag);
        truth[l] = v;
        u128 vmod = v < 0 ? big - static_cast<u128>(-v) : static_cast<u128>(v);
        for (size_t i = 0; i < 3; ++i)
            in[i * n + l] = static_cast<u64>(vmod % p1[i]);
    }
    conv.convert_exact(in.data(), n, out.data());
    for (size_t l = 0; l < n; ++l) {
        for (size_t j = 0; j < 4; ++j) {
            i128 t = truth[l] % static_cast<i128>(p2[j]);
            if (t < 0)
                t += p2[j];
            EXPECT_EQ(out[j * n + l], static_cast<u64>(t))
                << "coef " << l << " limb " << j;
        }
    }
}

TEST(BaseConverter, ExactConversionZeroAndEdges)
{
    auto p1 = generate_ntt_primes(36, 2, 1 << 10);
    auto p2 = generate_ntt_primes(36, 2, 1 << 10, p1);
    RnsBasis from(p1), to(p2);
    BaseConverter conv(from, to);
    const size_t n = 4;
    std::vector<u64> in(2 * n, 0), out(2 * n, 99);
    // coefficient 1: value 1; coefficient 2: value -1 (i.e., B-1).
    in[0 * n + 1] = 1;
    in[1 * n + 1] = 1;
    in[0 * n + 2] = p1[0] - 1;
    in[1 * n + 2] = p1[1] - 1;
    conv.convert_exact(in.data(), n, out.data());
    for (size_t j = 0; j < 2; ++j) {
        EXPECT_EQ(out[j * n + 0], 0u);
        EXPECT_EQ(out[j * n + 1], 1u);
        EXPECT_EQ(out[j * n + 2], p2[j] - 1);
    }
}

TEST(BaseConverter, LazyAccumulationMatchesU128Reference)
{
    // Up to 14 source primes into 60-, 62- and 63-bit targets: a
    // 60-bit row folds its lazy u64 sum every 8 terms, a 62-bit row
    // every 2 (where an unfolded sum overflows), and a 63-bit row adds
    // reduced terms, so both accumulation paths run.
    Rng rng(21);
    const size_t n = 32;
    for (auto [count, bits] : {std::pair{2, 36}, {5, 60}, {14, 36},
                               {14, 60}, {14, 63}}) {
        auto p1 = generate_ntt_primes(bits, count, 1 << 10);
        for (int tbits : {60, 62, 63}) {
            auto p2 = generate_ntt_primes(tbits, 3, 1 << 10, p1);
            RnsBasis from(p1), to(p2);
            BaseConverter conv(from, to);
            std::vector<u64> in(p1.size() * n), out(3 * n);
            for (size_t i = 0; i < p1.size(); ++i)
                for (size_t l = 0; l < n; ++l)
                    in[i * n + l] = l < 2 ? p1[i] - 1 - l
                                          : rng.uniform(p1[i]);
            conv.convert_approx(in.data(), n, out.data());
            for (size_t j = 0; j < 3; ++j)
                for (size_t l = 0; l < n; ++l) {
                    u128 acc = 0;
                    for (size_t i = 0; i < p1.size(); ++i) {
                        const u64 scaled = static_cast<u64>(
                            static_cast<u128>(in[i * n + l]) *
                            from.punc_inv(i) % p1[i]);
                        acc = (acc + static_cast<u128>(scaled % p2[j]) *
                                         conv.factor(i, j)) %
                              p2[j];
                    }
                    EXPECT_EQ(out[j * n + l], static_cast<u64>(acc))
                        << count << "x" << bits << " -> " << tbits
                        << " limb " << j << " coef " << l;
                }

            // Exact conversion of centered values |x| < 2^126, or up
            // to B/2·(1 − 2^-20) when B fits a u128 (the float overflow
            // estimate needs some margin below B/2).
            u128 half = ~static_cast<u128>(0) >> 2;
            if (count * bits < 127) {
                u128 big = 1;
                for (u64 p : p1)
                    big *= p;
                half = big / 2 - (big >> 21);
            }
            std::vector<i128> truth(n);
            for (size_t l = 0; l < n; ++l) {
                const u128 mag =
                    l < 2 ? half - l
                          : ((static_cast<u128>(rng.next()) << 64) |
                             rng.next()) %
                                half;
                const bool neg = (l & 1) != 0;
                truth[l] = neg ? -static_cast<i128>(mag)
                               : static_cast<i128>(mag);
                for (size_t i = 0; i < p1.size(); ++i) {
                    const u64 r = static_cast<u64>(mag % p1[i]);
                    in[i * n + l] = neg && r != 0 ? p1[i] - r : r;
                }
            }
            conv.convert_exact(in.data(), n, out.data());
            for (size_t j = 0; j < 3; ++j)
                for (size_t l = 0; l < n; ++l) {
                    i128 t = truth[l] % static_cast<i128>(p2[j]);
                    if (t < 0)
                        t += p2[j];
                    EXPECT_EQ(out[j * n + l], static_cast<u64>(t))
                        << count << "x" << bits << " -> " << tbits
                        << " exact limb " << j << " coef " << l;
                }
        }
    }
}

TEST(Partition, GroupsCoverRange)
{
    auto groups = make_partition(10, 4);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].first, 0u);
    EXPECT_EQ(groups[0].count, 4u);
    EXPECT_EQ(groups[2].first, 8u);
    EXPECT_EQ(groups[2].count, 2u);
    EXPECT_EQ(group_of(groups, 0), 0u);
    EXPECT_EQ(group_of(groups, 7), 1u);
    EXPECT_EQ(group_of(groups, 9), 2u);
}

TEST(Partition, ExactDivision)
{
    auto groups = make_partition(36, 4);
    EXPECT_EQ(groups.size(), 9u);
    for (const auto &g : groups)
        EXPECT_EQ(g.count, 4u);
}

} // namespace
} // namespace neo
