/**
 * @file
 * Concurrency stress suite (ctest label `concurrency`).
 *
 * Hammers every process-wide shared-state module from NTHREADS threads
 * at once. Under a plain build these tests check the functional
 * contracts (stable references, exact merge totals, build-once
 * memoisation); their real value is under `-DNEO_SANITIZE=ON` with
 * ThreadSanitizer, where any locking hole in the annotated modules
 * becomes a hard failure. Together with the clang `-Wthread-safety`
 * CI leg this gives both static and dynamic coverage of the same
 * invariants.
 *
 * Every test joins all threads before asserting, so failures are
 * deterministic even though the interleavings are not.
 */
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/context.h"
#include "ckks/keygen.h"
#include "ckks/keyswitch.h"
#include "ckks/ks_precomp.h"
#include "ckks/params.h"
#include "common/random.h"
#include "common/static_operand.h"
#include "common/types.h"
#include "neo/pipeline.h"
#include "obs/obs.h"
#include "rns/primes.h"
#include "tensor/gemm.h"

using namespace neo;
using namespace neo::ckks;

namespace {

constexpr int NTHREADS = 16;

/// Run @p fn on NTHREADS threads, all released at once, and join.
template <typename Fn>
void
hammer(Fn fn)
{
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> pool;
    pool.reserve(NTHREADS);
    for (int t = 0; t < NTHREADS; ++t)
        pool.emplace_back([&, t] {
            ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            fn(t);
        });
    while (ready.load() != NTHREADS)
        std::this_thread::yield();
    go.store(true);
    for (auto &th : pool)
        th.join();
}

} // namespace

// ---------------------------------------------------------------------
// StaticOperand: concurrent first uses of one operand's planes
// ---------------------------------------------------------------------

TEST(Concurrency, StaticOperandConcurrentPlaneLookups)
{
    // One static operand shared by all threads; every thread asks for
    // the same derived form, so the owner must build it exactly once
    // and serve the same storage to everyone.
    const StaticOperand op(std::vector<u64>(512, 7));

    std::atomic<int> builds{0};
    std::vector<const StaticOperand::Derived *> seen(NTHREADS);
    hammer([&](int t) {
        for (int i = 0; i < 100; ++i) {
            const auto &d = op.derived({0, 4, 16}, [&] {
                builds.fetch_add(1);
                return std::make_unique<StaticOperand::Derived>();
            });
            if (i == 0)
                seen[t] = &d;
            EXPECT_EQ(&d, seen[t]);
        }
    });
    EXPECT_EQ(builds.load(), 1);
    for (const auto *d : seen)
        EXPECT_EQ(d, seen[0]);

    // The same through a sliced engine: 16 threads multiply by the
    // same fresh operand; exactly one call slices it, the rest hit, and
    // every product is identical.
    const Modulus q(generate_ntt_primes(50, 1, 1 << 10)[0]);
    const size_t m = 8, n = 16, k = 32;
    std::vector<u64> a(m * k), b(k * n);
    for (size_t i = 0; i < a.size(); ++i)
        a[i] = (i * 0x9e3779b97f4a7c15ull) % q.value();
    for (size_t i = 0; i < b.size(); ++i)
        b[i] = (i * 0xbf58476d1ce4e5b9ull) % q.value();
    const StaticOperand bop(b);
    std::vector<std::vector<u64>> out(NTHREADS, std::vector<u64>(m * n));
    obs::Scope scope;
    hammer([&](int t) {
        fp64_sliced_matmul(a.data(), bop, out[t].data(), m, n, k, q);
    });
    EXPECT_EQ(scope.counter("gemm.plane_cache.miss"), 1u);
    EXPECT_EQ(scope.counter("gemm.plane_cache.hit"), u64(NTHREADS - 1));
    for (const auto &o : out)
        EXPECT_EQ(o, out[0]);
}

// ---------------------------------------------------------------------
// KeySwitchPrecomp: lazy per-level build under contention
// ---------------------------------------------------------------------

TEST(Concurrency, KeySwitchPrecompLazyBuildRace)
{
    CkksParams params = CkksParams::test_params(64, 6, 2);
    CkksContext ctx(params);
    const KeySwitchPrecomp &pre = ctx.precomp();
    const size_t nlevels = ctx.max_level() + 1;

    // level() promises a stable reference: the address every thread
    // sees for a given level must be identical, even when 16 threads
    // race to trigger the first (lazy) build.
    std::vector<std::atomic<const KeySwitchPrecomp::Level *>> seen(nlevels);
    for (auto &s : seen)
        s.store(nullptr);

    hammer([&](int t) {
        for (int i = 0; i < 50; ++i) {
            size_t l = (t + i) % nlevels;
            const auto &lv = pre.level(l);
            EXPECT_EQ(lv.active.size(), l + 1);
            const KeySwitchPrecomp::Level *expect = nullptr;
            if (!seen[l].compare_exchange_strong(expect, &lv)) {
                EXPECT_EQ(expect, &lv);
            }
        }
    });
}

// ---------------------------------------------------------------------
// Neo pipeline: concurrent first build of a context's kernels
// ---------------------------------------------------------------------

TEST(Concurrency, PipelineKernelsFirstUseRace)
{
    const CkksParams params = CkksParams::test_params(256, 5, 2);
    const CkksContext ctx(params);
    KeyGenerator keygen(ctx, 77);
    const SecretKey sk = keygen.secret_key();
    const KlssEvalKey rlk = keygen.to_klss(keygen.relin_key(sk));
    const size_t nlevels = ctx.max_level() + 1;

    // Serial reference outputs. keyswitch_klss never touches the
    // pipeline's kernels, so they are still unbuilt when the threads
    // start: all 16 race to build them, then each level's BConv
    // kernels, on their first keyswitch.
    std::vector<RnsPoly> inputs;
    std::vector<std::pair<RnsPoly, RnsPoly>> expect;
    for (size_t l = 0; l < nlevels; ++l) {
        Rng rng(900 + l);
        RnsPoly d2(ctx.n(), ctx.active_mods(l), PolyForm::eval);
        for (size_t i = 0; i < d2.limbs(); ++i)
            for (size_t c = 0; c < d2.n(); ++c)
                d2.limb(i)[c] = rng.uniform(d2.modulus(i).value());
        expect.push_back(keyswitch_klss(d2, rlk, ctx));
        inputs.push_back(std::move(d2));
    }

    const auto same = [](const RnsPoly &a, const RnsPoly &b) {
        return a.limbs() == b.limbs() &&
               std::equal(a.data(), a.data() + a.limbs() * a.n(),
                          b.data());
    };
    std::vector<int> mismatches(NTHREADS, 0);
    hammer([&](int t) {
        for (size_t i = 0; i < 2; ++i) {
            const size_t l = (static_cast<size_t>(t) + i) % nlevels;
            const auto got = keyswitch_klss_pipeline(
                inputs[l], rlk, ctx, ExecPolicy::fixed(EngineId::fp64_tcu));
            if (!same(got.first, expect[l].first) ||
                !same(got.second, expect[l].second))
                ++mismatches[t];
        }
    });
    for (int t = 0; t < NTHREADS; ++t)
        EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

// ---------------------------------------------------------------------
// obs::Registry: concurrent writers + merge_from
// ---------------------------------------------------------------------

TEST(Concurrency, RegistrySharedWritersExactTotals)
{
    obs::Registry reg;
    constexpr int ITERS = 500;

    hammer([&](int t) {
        for (int i = 0; i < ITERS; ++i) {
            reg.add("stress.ops");
            reg.add_value("stress.bytes", 8.0);
            reg.observe("stress.lat_us", double(t * ITERS + i));
            reg.set_gauge("stress.last_thread", double(t));
            reg.add_gauge("stress.inflight", (i % 2 == 0) ? 1.0 : -1.0);
            // Concurrent reads while writers are active.
            (void)reg.counter("stress.ops");
        }
    });

    EXPECT_EQ(reg.counter("stress.ops"), u64(NTHREADS) * ITERS);
}

TEST(Concurrency, RegistryMergeFromShards)
{
    // The per-shard pattern neo/shard.cpp uses: each worker owns a
    // private registry, the root merges them. Merging from all threads
    // into one root while the shards are still being written elsewhere
    // is not the contract; merge-after-join totals must be exact.
    std::vector<obs::Registry> shards(NTHREADS);
    constexpr int ITERS = 300;

    hammer([&](int t) {
        for (int i = 0; i < ITERS; ++i) {
            shards[t].add("shard.ops");
            shards[t].observe("shard.lat_us", double(i));
        }
    });

    obs::Registry root;
    // merge_from locks both registries; interleave merges from
    // several threads to exercise that path too (each shard is merged
    // exactly once).
    std::atomic<int> next{0};
    hammer([&](int) {
        for (int s; (s = next.fetch_add(1)) < NTHREADS;)
            root.merge_from(shards[s]);
    });

    EXPECT_EQ(root.counter("shard.ops"), u64(NTHREADS) * ITERS);
}
