/**
 * hebench — host wall-clock benchmark of whole HE operations.
 *
 *   hebench --workload NAME --seed N --seconds S --trace 0|1
 *
 * One client, one process, a closed loop: the next request is issued
 * when the previous one has returned. Every result is decrypted and
 * compared with a double-precision reference outside the timed
 * region, and a deliberately corrupted ciphertext must fail the same
 * check. The last line of stdout is one JSON object:
 *
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
 *
 * --trace 0 measures the end-to-end metrics with no obs registry
 * installed. --trace 1 runs a fixed number of requests twice — once
 * untraced, once with neo::obs event recording on — and reports the
 * per-layer metrics (layers.h) plus the tracing overhead.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/random.h"
#include "common/thread_pool.h"
#include "layers.h"
#include "obs/obs.h"
#include "workloads.h"

namespace {

using namespace hebench;
using Clock = std::chrono::steady_clock;

/// Executors in the global pool (the submitting thread counts as one).
/// One: on a shared 4-vCPU host, a second executor makes every request
/// wait on whichever vCPU the hypervisor last descheduled, and run-to-
/// run spread then follows the neighbours' load rather than the code.
constexpr size_t kThreads = 1;

/// Per-workload run shape: how many set-ups the setup_s median is
/// taken over, how many requests per second of --seconds each phase
/// of a traced run gets, and how many consecutive requests make one
/// throughput window. The traced request count depends only on
/// --seconds, so two traced runs at one seed repeat their counts.
struct Shape
{
    int setups;
    double trace_rate;
    size_t window;
};

Shape
shape_of(const std::string &workload)
{
    // Windows: one bootstrap; one 6-iteration training run of
    // helr_hybrid; a ninth of a 72-op klss_ops block, short enough that
    // most windows fall outside a slow stretch of the host.
    if (workload == "klss_bootstrap")
        return {3, 0.15, 1};
    if (workload == "helr_hybrid")
        return {9, 10, 6};
    return {3, 10, 8};
}

double
cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The request stream plus its output check: times each request and
/// counts failures (a throw, or an error past the tolerance).
struct Runner
{
    Workload &w;
    uint64_t attempted = 0, failed = 0;
    double min_bits = INFINITY;

    /// Runs request @p i; returns its latency and adds its CPU time to
    /// @p cpu_s. @p reg, when set, is the obs sink for the request call
    /// alone — preparation and the check stay out of it.
    double
    run(uint64_t i, double &cpu_s, neo::obs::Registry *reg = nullptr)
    {
        w.prepare(i);
        ++attempted;
        bool threw = false;
        double lat = 0;
        {
            const neo::obs::Activate sink(reg);
            const double c0 = cpu_seconds();
            const auto t0 = Clock::now();
            try {
                w.request(i);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "request %llu threw: %s\n",
                             static_cast<unsigned long long>(i), e.what());
                threw = true;
            }
            lat = since(t0);
            cpu_s += cpu_seconds() - c0;
        }
        if (threw) {
            ++failed;
            return lat;
        }
        const double err = w.error(w.output());
        if (!(err <= w.tolerance()))
            ++failed;
        else
            min_bits = std::min(min_bits, -std::log2(std::max(err, 0x1p-64)));
        return lat;
    }

    /// The check must reject a corrupted result: overwrite the first
    /// limb of c0 with seeded random residues and decrypt.
    bool
    check_fires(uint64_t seed) const
    {
        Ciphertext bad = w.output();
        neo::Rng rng(seed ^ 0xbadULL);
        const uint64_t q = bad.c0.modulus(0).value();
        for (size_t j = 0; j < bad.c0.n(); ++j)
            bad.c0.limb(0)[j] = rng.uniform(q);
        return !(w.error(bad) <= w.tolerance());
    }
};

void
print_result(bool correct, uint64_t attempted, uint64_t failed,
             const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
}

int
end_to_end(const std::string &name, uint64_t seed, double seconds)
{
    const Shape shape = shape_of(name);
    std::vector<double> setup_s;
    std::unique_ptr<Workload> w;
    for (int k = 0; k < shape.setups; ++k) {
        w.reset();
        const auto t0 = Clock::now();
        w = make_workload(name, seed);
        setup_s.push_back(since(t0));
    }

    Runner run{*w};
    std::vector<double> lat, windows;
    double busy = 0, cpu = 0, window = 0;
    for (uint64_t i = 0; busy < seconds || windows.empty(); ++i) {
        lat.push_back(run.run(i, cpu));
        busy += lat.back();
        window += lat.back();
        if (lat.size() % shape.window == 0) {
            windows.push_back(window);
            window = 0;
        }
    }
    const bool fires = run.check_fires(seed);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const size_t n = lat.size();
    std::sort(lat.begin(), lat.end());
    // Tail: nearest-rank p90. Above it, the few requests the hypervisor
    // descheduled for tens of ms set the value, and it swung by half
    // between runs of identical work. A fixed percentile keeps the
    // metric the same statistic at every request count; below 100
    // requests (klss_bootstrap) fewer than ten samples lie beyond it.
    const size_t tail_idx = (9 * n + 9) / 10 - 1;
    std::printf("# %s seed=%llu threads=%zu requests=%zu windows=%zu "
                "failed=%llu check_fires=%d setups=%d\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                kThreads, n, windows.size(),
                static_cast<unsigned long long>(run.failed), fires ? 1 : 0,
                shape.setups);

    // Throughput: the median over whole windows, so the slow stretches
    // a shared host inflicts for a few seconds at a time move it only
    // when they cover half the run.
    const Metrics m = {
        {"req_per_s", static_cast<double>(shape.window) / median(windows),
         "1/s"},
        {"lat_p50_ms", 1e3 * median(lat), "ms"},
        {"lat_tail_ms", 1e3 * lat[tail_idx], "ms"},
        {"cpu_ms_per_req", 1e3 * cpu / static_cast<double>(n), "ms"},
        {"prec_bits", run.min_bits, "bits"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
    };
    print_result(run.failed == 0 && fires, run.attempted, run.failed, m);
    return 0;
}

int
traced(const std::string &name, uint64_t seed, double seconds)
{
    const Shape shape = shape_of(name);
    TraceTotals totals;
    std::unique_ptr<Workload> w;
    {
        // Set-up under a counters-only registry: the cache and
        // precomputation gauges fill here, during the warm-up. Its
        // counts are the warm-up's, not the requests', so only the
        // gauges are kept.
        neo::obs::Scope scope;
        w = make_workload(name, seed);
        totals.add_gauges(scope.registry());
    }
    Runner run{*w};
    TraceRun tr;
    tr.requests = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(seconds * shape.trace_rate)));

    // Phase A: untraced, for the benchmark's own timers and the
    // overhead baseline.
    w->timers.clear();
    for (uint64_t i = 0; i < tr.requests; ++i)
        tr.untraced_wall_s += run.run(i, tr.untraced_cpu_s);
    tr.keyswitch_s = w->timers.keyswitch_s;

    // Phase B: the same requests with event recording on, one
    // registry per request so no event cap is reached.
    w->timers.clear();
    neo::obs::Registry::Options opts;
    opts.record_events = true;
    double traced_cpu = 0;
    for (uint64_t i = 0; i < tr.requests; ++i) {
        neo::obs::Registry reg(opts);
        tr.traced_wall_s += run.run(i, traced_cpu, &reg);
        if (reg.dropped_events() > 0)
            throw std::runtime_error("trace dropped events");
        totals.add(reg);
    }
    tr.traced_client_s = w->timers.client_s;
    const bool fires = run.check_fires(seed);

    const Metrics m = per_layer_metrics(tr, totals);
    std::printf("# %s seed=%llu threads=%zu traced requests=%llu "
                "failed=%llu check_fires=%d\n",
                name.c_str(), static_cast<unsigned long long>(seed),
                kThreads, static_cast<unsigned long long>(tr.requests),
                static_cast<unsigned long long>(run.failed), fires ? 1 : 0);
    print_result(run.failed == 0 && fires, run.attempted, run.failed, m);
    return 0;
}

int
usage()
{
    std::fprintf(stderr, "usage: hebench --workload NAME --seed N "
                         "--seconds S --trace 0|1\nworkloads:");
    for (const auto &n : workload_names())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    long long seed = -1, trace = -1;
    double seconds = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (std::strcmp(flag, "--workload") == 0)
            workload = v;
        else if (std::strcmp(flag, "--seed") == 0)
            seed = std::strtoll(v, &end, 10);
        else if (std::strcmp(flag, "--seconds") == 0)
            seconds = std::strtod(v, &end);
        else if (std::strcmp(flag, "--trace") == 0)
            trace = std::strtoll(v, &end, 10);
        else
            return usage();
        if (end != nullptr && *end != '\0')
            return usage();
    }
    if (argc % 2 != 1 || workload.empty() || seed < 0 || seconds <= 0 ||
        (trace != 0 && trace != 1))
        return usage();
    const auto &names = workload_names();
    if (std::find(names.begin(), names.end(), workload) == names.end())
        return usage();

    neo::ThreadPool::set_global_threads(kThreads);
    try {
        return trace == 1
                   ? traced(workload, static_cast<uint64_t>(seed), seconds)
                   : end_to_end(workload, static_cast<uint64_t>(seed),
                                seconds);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hebench: %s\n", e.what());
        return 1;
    }
}
