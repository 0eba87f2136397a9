#include "layers.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace hebench {

namespace {

/// Keyswitch-path stage spans reported one by one.
const char *const kStages[] = {
    "keyswitch_klss_pipeline", "pipeline_intt_q", "pipeline_modup",
    "pipeline_ip",             "pipeline_recover", "pipeline_moddown",
    "mod_down",                "moddown_fix",     "keyswitch_hybrid"};

/// Modeled A100 kernel rows of the fused KLSS keyswitch.
const char *const kModelRows[] = {"intt_q", "modup_bconv", "ntt_t",
                                  "ip",     "intt_t",      "recover_bconv",
                                  "moddown_fused", "ntt_q"};

} // namespace

void
TraceTotals::add(const neo::obs::Registry &reg)
{
    // Self time per span name: the leaf frames of the library's own
    // collapsed-stack export, which nests spans per thread and counts
    // exclusive nanoseconds.
    std::ostringstream flame;
    neo::obs::export_flamegraph(reg, flame);
    std::istringstream lines(flame.str());
    std::string path;
    int64_t self_ns = 0;
    while (lines >> path >> self_ns)
        spans[path.substr(path.rfind(';') + 1)].self_s +=
            1e-9 * static_cast<double>(self_ns);
    for (const auto &e : reg.events()) {
        Span &s = spans[e.name];
        s.cat = e.cat;
        s.calls += 1;
        s.total_s += 1e-9 * static_cast<double>(e.dur_ns);
    }
    for (const auto &[k, v] : reg.counters())
        counters[k] += v;
    for (const auto &[k, v] : reg.values())
        values[k] += v;
    add_gauges(reg);
}

void
TraceTotals::add_gauges(const neo::obs::Registry &reg)
{
    for (const auto &[k, g] : reg.gauges()) {
        gauge_peak[k] = std::max(gauge_peak[k], g.high_water);
        gauge_sum[k] += g.current;
    }
}

double
TraceTotals::self_total_s() const
{
    double s = 0;
    for (const auto &[name, span] : spans)
        s += span.self_s;
    return s;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Metrics
per_layer_metrics(const TraceRun &run, const TraceTotals &t)
{
    Metrics m;
    const auto put = [&](std::string name, double v, const char *unit) {
        m.push_back({std::move(name), v, unit});
    };
    const auto get = [](const auto &map, const std::string &k) {
        const auto it = map.find(k);
        return it == map.end() ? decltype(it->second){} : it->second;
    };
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    // Sum over the spans of category @p cat whose name starts with
    // @p prefix.
    const auto spans = [&](const char *cat, const char *prefix = "") {
        TraceTotals::Span sum;
        for (const auto &[name, s] : t.spans)
            if (std::strcmp(s.cat, cat) == 0 && name.rfind(prefix, 0) == 0) {
                sum.calls += s.calls;
                sum.total_s += s.total_s;
                sum.self_s += s.self_s;
            }
        return sum;
    };
    namespace cat = neo::obs::cat;

    // neo pipeline, through the benchmark's timer on the KLSS hook
    // (untraced phase).
    double ks_busy = 0;
    for (double s : run.keyswitch_s)
        ks_busy += s;
    put("keyswitch.calls", static_cast<double>(run.keyswitch_s.size()),
        "count");
    put("keyswitch.busy_s", ks_busy, "s");
    put("keyswitch.p50_ms", 1e3 * median(run.keyswitch_s), "ms");
    put("keyswitch.share", ratio(ks_busy, run.untraced_wall_s), "ratio");

    // tensor
    const auto gemm = spans(cat::gemm);
    const double hit = static_cast<double>(get(t.counters, "gemm.plane_cache.hit"));
    const double miss = static_cast<double>(get(t.counters, "gemm.plane_cache.miss"));
    put("gemm.calls", static_cast<double>(get(t.counters, "gemm.calls")),
        "count");
    put("gemm.self_s", gemm.self_s, "s");
    put("gemm.self_share", ratio(gemm.self_s, t.self_total_s()), "ratio");
    put("gemm.flops", static_cast<double>(get(t.counters, "gemm.flops")),
        "flop");
    put("gemm.plane_cache.hit_ratio", ratio(hit, hit + miss), "ratio");
    put("plane_cache.resident_mb",
        get(t.gauge_peak, "plane_cache.resident_bytes") / (1 << 20), "MB");

    // poly
    const auto r2 = spans(cat::ntt, "ntt_r2_");
    put("ntt.r2.calls", static_cast<double>(r2.calls), "count");
    put("ntt.r2.self_s", r2.self_s, "s");
    put("ntt.matrix.self_s", spans(cat::ntt, "mntt_").self_s +
                                   get(t.spans, "ntt_twist").self_s, "s");

    // rns / neo kernels
    const auto bconv = spans(cat::bconv);
    put("bconv.calls", static_cast<double>(bconv.calls), "count");
    put("bconv.self_s", bconv.self_s, "s");
    put("bconv.bytes", get(t.values, "bconv.bytes"), "B");
    const auto ip = spans(cat::ip);
    put("ip.calls", static_cast<double>(ip.calls), "count");
    put("ip.self_s", ip.self_s, "s");
    put("ip.bytes", get(t.values, "ip.bytes"), "B");

    // neo / ckks keyswitch stages
    for (const char *stage : kStages)
        put(std::string("stage.") + stage + ".self_s",
            get(t.spans, stage).self_s, "s");

    // ckks evaluator (inclusive op spans) and client (benchmark timer)
    const double hmult = get(t.spans, "hmult").total_s;
    const double rotate =
        get(t.spans, "hrotate").total_s + get(t.spans, "hconj").total_s;
    put("ckks.hmult.busy_s", hmult, "s");
    put("ckks.rotate.busy_s", rotate, "s");
    put("ckks.plain.busy_s",
        std::max(0.0, run.traced_wall_s - hmult - rotate -
                          run.traced_client_s),
        "s");
    put("ckks.client.busy_s", run.traced_client_s, "s");
    put("ckks.client.share", ratio(run.traced_client_s, run.traced_wall_s),
        "ratio");

    // boot: transform / EvalMod work outside the evaluator ops
    put("boot.cts.self_s", get(t.spans, "boot_cts").self_s, "s");
    put("boot.evalmod.self_s", get(t.spans, "boot_evalmod").self_s, "s");
    put("boot.stc.self_s", get(t.spans, "boot_stc").self_s, "s");

    // common / ckks resources
    put("pool.cpu_per_wall", ratio(run.untraced_cpu_s, run.untraced_wall_s),
        "ratio");
    put("workspace.peak_bytes", get(t.gauge_peak, "ws.arena.peak_bytes"),
        "B");
    put("ks_precomp.levels", get(t.gauge_sum, "ks.precomp.levels"),
        "count");

    // gpusim twin: the pipeline's modeled A100 time for the same calls
    const double modeled = get(t.values, "modeled.keyswitch.s");
    put("modeled.keyswitch_s", modeled, "s");
    for (const char *row : kModelRows)
        put(std::string("modeled.kernel.") + row + ".s",
            get(t.values, std::string("modeled.kernel.") + row + ".s"),
            "s");
    put("host_over_model", ratio(ks_busy, modeled), "ratio");

    // obs
    put("trace.self_s", t.self_total_s(), "s");
    put("trace.overhead", ratio(run.traced_wall_s, run.untraced_wall_s),
        "ratio");
    return m;
}

} // namespace hebench
