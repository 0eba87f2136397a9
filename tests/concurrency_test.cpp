/**
 * @file
 * Concurrency stress suite (ctest label `concurrency`).
 *
 * Hammers every process-wide shared-state module from NTHREADS threads
 * at once. Under a plain build these tests check the functional
 * contracts (stable references, exact merge totals, generation
 * monotonicity); their real value is under `-DNEO_SANITIZE=ON` with
 * ThreadSanitizer, where any locking hole in the annotated modules
 * becomes a hard failure. Together with the clang `-Wthread-safety`
 * CI leg this gives both static and dynamic coverage of the same
 * invariants.
 *
 * Every test joins all threads before asserting, so failures are
 * deterministic even though the interleavings are not.
 */
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ckks/context.h"
#include "ckks/ks_precomp.h"
#include "ckks/params.h"
#include "common/static_operand.h"
#include "common/types.h"
#include "obs/obs.h"
#include "tensor/plane_cache.h"

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
// StaticOperands: pin / unpin / generation races
// ---------------------------------------------------------------------

TEST(Concurrency, StaticOperandPinUnpinRace)
{
    auto &reg = StaticOperands::instance();

    // One private buffer per thread: pin/unpin churn must never
    // corrupt the registry or hand out a stale generation.
    std::vector<std::vector<u64>> bufs(NTHREADS);
    for (auto &b : bufs)
        b.assign(256, 0x1234'5678'9abc'def0ull);

    // A shared buffer pinned for the whole test: its generation must
    // stay constant no matter how much churn happens around it.
    std::vector<u64> shared(128, 7);
    StaticPin shared_pin(shared.data(), shared.size() * sizeof(u64));
    const u64 shared_gen = reg.generation(shared.data());
    ASSERT_NE(shared_gen, 0u);

    hammer([&](int t) {
        u64 last = 0;
        for (int i = 0; i < 200; ++i) {
            u64 g = reg.pin(bufs[t].data(),
                            bufs[t].size() * sizeof(u64));
            EXPECT_GT(g, last); // generations are monotone
            last = g;
            // Interior pointers resolve to the enclosing pin.
            EXPECT_EQ(reg.generation(bufs[t].data() + 17), g);
            // The concurrently churned registry still resolves the
            // long-lived pin correctly.
            EXPECT_EQ(reg.generation(shared.data() + (i % 128)),
                      shared_gen);
            reg.unpin(bufs[t].data());
            EXPECT_EQ(reg.generation(bufs[t].data()), 0u);
        }
    });

    EXPECT_EQ(reg.generation(shared.data()), shared_gen);
}

// ---------------------------------------------------------------------
// PlaneCache: concurrent lookups against pinned operands
// ---------------------------------------------------------------------

TEST(Concurrency, PlaneCacheConcurrentLookups)
{
    auto &cache = PlaneCache::global();
    cache.clear();

    // A handful of pinned operands shared by all threads; every thread
    // asks for the same derived planes, so the cache must build each
    // entry exactly once semantically and serve identical storage.
    constexpr int NOPS = 4;
    std::vector<std::vector<u64>> ops(NOPS);
    std::vector<StaticPin> pins;
    for (int o = 0; o < NOPS; ++o) {
        ops[o].resize(512);
        for (size_t i = 0; i < ops[o].size(); ++i)
            ops[o][i] = (u64(o + 1) << 40) ^ (u64(i) * 0x9e3779b97f4a7c15ull);
        pins.emplace_back(ops[o].data(), ops[o].size() * sizeof(u64));
    }

    SplitPlan plan;
    plan.a_planes = 4;
    plan.a_plane_bits = 16;
    plan.b_planes = 4;
    plan.b_plane_bits = 16;

    std::vector<PlaneCache::F64Ptr> f64_seen(NTHREADS);
    std::vector<PlaneCache::Pow2Ptr> pow2_seen(NTHREADS);

    hammer([&](int t) {
        for (int i = 0; i < 100; ++i) {
            const auto &op = ops[(t + i) % NOPS];
            auto f = cache.f64_planes(op.data(), op.size(), 4, 16);
            ASSERT_NE(f, nullptr);
            auto s = cache.i32_planes(op.data(), op.size(), 8, 8);
            ASSERT_NE(s, nullptr);
            int w = cache.width_bits(op.data(), op.size());
            EXPECT_GT(w, 0);
            auto p2 = cache.pow2(plan, 0xffff'ffff'0000'0001ull);
            ASSERT_NE(p2, nullptr);
            if (i == 0 && (t + i) % NOPS == 0) {
                f64_seen[t] = f;
                pow2_seen[t] = p2;
            }
        }
    });

    // All threads that sampled operand 0 must agree on the bytes.
    const PlaneCache::F64Ptr *first = nullptr;
    for (const auto &f : f64_seen) {
        if (!f)
            continue;
        if (first == nullptr) {
            first = &f;
            continue;
        }
        ASSERT_EQ(f->size(), (*first)->size());
        EXPECT_EQ(std::memcmp(f->data(), (*first)->data(),
                              f->size() * sizeof(double)),
                  0);
    }
    cache.clear();
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
