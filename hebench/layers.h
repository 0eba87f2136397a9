/**
 * @file
 * Per-layer attribution of the traced run: self time of the neo::obs
 * spans recorded inside the library, the registry's counters and
 * gauges, and the benchmark's own timers, folded into the per-layer
 * metric names listed in BENCHMARK.json.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace hebench {

/// One reported metric.
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};
/// In the order the metrics are printed.
using Metrics = std::vector<Metric>;

/**
 * Everything one traced run accumulates. Counters and values add over
 * the per-request registries; gauge high-water marks take the maximum;
 * span totals add per span name.
 */
struct TraceTotals
{
    struct Span
    {
        const char *cat = ""; ///< obs::cat::* of the span name
        uint64_t calls = 0;
        double total_s = 0; ///< inclusive duration
        double self_s = 0;  ///< exclusive time, as export_flamegraph counts it
    };
    std::map<std::string, Span> spans;
    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> values;
    std::map<std::string, double> gauge_peak;
    std::map<std::string, double> gauge_sum; ///< sum of final levels

    /// Fold one registry (events, counters, values, gauges) in.
    void add(const neo::obs::Registry &reg);
    /// Fold in only the gauges of @p reg.
    void add_gauges(const neo::obs::Registry &reg);
    /// Sum of self time over every span.
    double self_total_s() const;
};

/// What the traced run measured outside the registries.
struct TraceRun
{
    uint64_t requests = 0; ///< requests in each phase
    double untraced_wall_s = 0;
    double untraced_cpu_s = 0;
    double traced_wall_s = 0;
    std::vector<double> keyswitch_s; ///< untraced hook calls
    double traced_client_s = 0;
};

/// The per-layer metrics, every name on every workload (a layer the
/// workload does not run reads 0).
Metrics per_layer_metrics(const TraceRun &run, const TraceTotals &t);

/// Median of @p v (0 when empty); sorts a copy.
double median(std::vector<double> v);

} // namespace hebench
