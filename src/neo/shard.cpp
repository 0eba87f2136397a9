#include "neo/shard.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "gpusim/event_sim.h"
#include "rns/partition.h"

namespace neo::shard {

using gpusim::CollectiveModel;
using gpusim::KernelCost;
using gpusim::SimKernel;
using gpusim::Topology;
using model::KernelModel;

ShardRange
shard_range(size_t total, size_t devices, size_t d)
{
    NEO_CHECK(devices >= 1 && d < devices, "bad shard coordinates");
    // One rule for every shard axis: the rns partition helper the
    // functional pipeline (mod_down) uses too.
    const auto groups = make_even_partition(total, devices);
    return {groups[d].first, groups[d].count};
}

CommPlan
comm_plan(const ckks::CkksParams &params, size_t level,
          const Topology &topo)
{
    CommPlan plan;
    plan.devices = topo.devices;
    if (topo.devices <= 1)
        return plan;
    const double limb_bytes =
        static_cast<double>(params.n) * 8.0 *
        static_cast<double>(params.batch);
    const size_t q_limbs = level + 1;
    const size_t beta = params.beta(level);
    const size_t ap = params.klss_alpha_prime();
    const size_t d = topo.devices;
    // Shard payloads use the same ceil-partition rule as
    // shard_range(), so the busiest device's shard prices the step.
    const auto ceil_shard = [d](size_t total) {
        return static_cast<double>((total + d - 1) / d);
    };
    plan.src_shard_bytes = ceil_shard(q_limbs) * limb_bytes;
    plan.digit_shard_bytes =
        ceil_shard(beta) * static_cast<double>(ap) * limb_bytes;
    plan.fix_shard_bytes = ceil_shard(q_limbs) * limb_bytes;

    CollectiveModel comm(topo);
    plan.ag_src = comm.all_gather(plan.src_shard_bytes,
                                  comm.best_chunks(plan.src_shard_bytes));
    plan.ag_digits = comm.all_gather(
        plan.digit_shard_bytes, comm.best_chunks(plan.digit_shard_bytes));
    plan.rs_fix = comm.reduce_scatter(
        plan.fix_shard_bytes, comm.best_chunks(plan.fix_shard_bytes));
    return plan;
}

namespace {

/// Fraction of a stage's work the busiest device owns when its
/// partition axis of @p total items splits over @p devices.
double
shard_fraction(size_t total, size_t devices)
{
    if (total == 0)
        return 0;
    const size_t shard = (total + devices - 1) / devices;
    return static_cast<double>(shard) / static_cast<double>(total);
}

/// Scale every work field of a cost; launches stay (each device
/// dispatches the full kernel sequence on its own shard).
KernelCost
scale_cost(KernelCost c, double f)
{
    c.cuda_modmul *= f;
    c.cuda_modadd *= f;
    c.cuda_int_ops *= f;
    c.tcu_fp64_macs *= f;
    c.tcu_int8_macs *= f;
    c.bytes_read *= f;
    c.bytes_written *= f;
    return c;
}

/// The partition axis of a named keyswitch stage: items(total) the
/// axis splits. Q-limb stages shard by l+1, ModUp-side stages by β,
/// key-digit stages by β̃.
size_t
stage_axis_total(std::string_view stage, size_t q_limbs, size_t beta,
                 size_t beta_tilde)
{
    if (stage == "modup_bconv" || stage == "ntt_t")
        return beta;
    if (stage == "ip" || stage == "intt_t" || stage == "recover_bconv")
        return beta_tilde;
    // intt_q, moddown_bconv, moddown_fused, moddown_fix, ntt_q —
    // everything keyed to the Q basis.
    (void)stage;
    return q_limbs;
}

} // namespace

KeySwitchCost
model_keyswitch(const ckks::CkksParams &params, size_t level,
                const model::ModelConfig &cfg)
{
    NEO_CHECK(cfg.devices >= 1, "devices must be positive");
    KernelModel model(params, cfg);
    const auto named = model.kernels(model::Op::keyswitch, level);
    KeySwitchCost out;
    static_cast<KernelModel::AttributedSchedule &>(out) =
        model.run_attributed(named);
    out.devices = cfg.devices;
    out.single_seconds = out.seconds;
    // One device is exactly the single-device schedule: the serial
    // event-sim chain below cannot overlap compute-bound kernels with
    // memory-bound neighbours the way the aggregate multistream model
    // does, so the established run_attributed figure is the one kept.
    if (cfg.devices == 1)
        return out;

    const Topology topo =
        Topology::preset(cfg.interconnect, cfg.devices, cfg.device);
    out.plan = comm_plan(params, level, topo);

    const size_t q_limbs = level + 1;
    const size_t beta = params.beta(level);
    const size_t beta_tilde = params.beta_tilde(level);
    const size_t d_count = cfg.devices;

    // --- Build the sharded schedule for event_sim. --------------------
    // Each device runs the full kernel sequence over its own shard on
    // its own stream; the three collectives are link-resource entries
    // spliced into the chain at their pipeline position. Under
    // multistream the batch is double-buffered in halves (two chains
    // per device), so one half's collective hides behind the other
    // half's compute — the multi-device analogue of §4.6.
    struct Entry
    {
        const char *name;
        double raw_s = 0; ///< simulated serial time of the entry
        bool comm = false;
    };
    std::vector<SimKernel> sim;
    std::vector<Entry> entries;
    std::vector<KernelModel::Share> shares;
    const size_t halves = cfg.multistream ? 2 : 1;
    const double hf = 1.0 / static_cast<double>(halves);

    // Graph capture: each device captures its local chain once and
    // replays it with one amortized dispatch. The simulator sees the
    // replay as equivalent launch units on the chain's first kernel
    // (the same DeviceSpec::graph_launch_s pricing run_schedule
    // applies to the single-device schedule); the rows spread it over
    // the captured launches, as run_attributed does.
    double chain_launches = 0;
    for (const auto &nk : named)
        chain_launches += nk.cost.launches;
    const bool graph = cfg.graph_capture && cfg.device.kernel_launch_s > 0;
    const double graph_units =
        graph ? cfg.device.graph_launch_s(chain_launches) /
                    cfg.device.kernel_launch_s
              : -1;
    gpusim::DeviceSpec rowdev = cfg.device;
    if (graph && chain_launches > 0)
        rowdev.kernel_launch_s =
            cfg.device.graph_launch_s(chain_launches) / chain_launches;

    const auto push_compute = [&](const KernelModel::NamedKernel &nk,
                                  int stream, double frac,
                                  bool chain_head) {
        const KernelCost shard = scale_cost(nk.cost, frac * hf);
        KernelCost c = shard;
        if (graph_units >= 0)
            c.launches = chain_head ? graph_units : 0;
        sim.push_back({c, stream, {}, 0.0});
        entries.push_back(
            {nk.name, c.breakdown(cfg.device, cfg.multistream).total_s(),
             false});
        const auto b = shard.breakdown(rowdev, cfg.multistream);
        shares.push_back({nk.name, b, b.total_s(), nk.fused});
    };
    const auto push_comm = [&](const char *name, double time_s,
                               int stream) {
        KernelCost c;
        c.launches = 0;
        sim.push_back({c, stream, {}, time_s * hf});
        entries.push_back({name, time_s * hf, true});
        shares.push_back({name, {}, time_s * hf, 0});
    };

    for (size_t dev = 0; dev < d_count; ++dev) {
        for (size_t h = 0; h < halves; ++h) {
            const int stream = static_cast<int>(dev * halves + h);
            bool chain_head = true;
            for (const auto &nk : named) {
                const std::string_view st(nk.name);
                // Collectives precede the stage that consumes them.
                if (st == "modup_bconv" &&
                    (entries.empty() ||
                     std::string_view(entries.back().name) !=
                         "modup_bconv"))
                    push_comm("comm.allgather.src",
                              out.plan.ag_src.time_s, stream);
                if (st == "ip")
                    push_comm("comm.allgather.digits",
                              out.plan.ag_digits.time_s, stream);
                if (st == "ntt_q")
                    push_comm("comm.reducescatter.fix",
                              2 * out.plan.rs_fix.time_s, stream);
                const double frac = shard_fraction(
                    stage_axis_total(st, q_limbs, beta, beta_tilde),
                    d_count);
                push_compute(nk, stream, frac, chain_head);
                chain_head = false;
            }
        }
    }

    // Each device owns its own cuda/tcu/mem/link resources, so it is
    // simulated on its own EventSimulator (one shared simulator would
    // make the "devices" contend for one GPU's rates and sharding
    // could never pay). The collectives are synchronous: they appear
    // in every device's chain at the same α–β price, so the fleet
    // makespan is the max of the per-device makespans.
    gpusim::EventSimulator sim_dev(cfg.device);
    double raw_makespan = 0;
    for (size_t dev = 0; dev < d_count; ++dev) {
        std::vector<SimKernel> mine;
        for (const auto &k : sim)
            if (static_cast<size_t>(k.stream) / halves == dev)
                mine.push_back(k);
        raw_makespan =
            std::max(raw_makespan, sim_dev.run(mine).makespan);
    }

    // Normalize like the single-device schedule: occupancy derate for
    // batched pipelines, then per-batched-ciphertext.
    double norm = 1.0;
    if (cfg.batched_pipeline) {
        const double b = static_cast<double>(params.batch);
        norm *= (b + cfg.device.occupancy_half_batch) / b;
    }
    norm /= static_cast<double>(params.batch);
    out.seconds = raw_makespan * norm;
    out.kernels = KernelModel::attribute(shares, out.seconds);

    // --- Per-device and per-link attribution. -------------------------
    out.per_device.resize(d_count);
    for (size_t dev = 0; dev < d_count; ++dev)
        out.per_device[dev].device = dev;
    for (size_t i = 0; i < entries.size(); ++i) {
        const size_t dev =
            static_cast<size_t>(sim[i].stream) / halves;
        if (entries[i].comm) {
            out.per_device[dev].comm_s += entries[i].raw_s * norm;
            out.comm_s += entries[i].raw_s * norm;
        } else {
            out.per_device[dev].compute_s += entries[i].raw_s * norm;
        }
    }
    const size_t links = topo.num_links();
    const double link_bytes =
        links > 0 ? out.plan.total_bytes() / static_cast<double>(links)
                  : 0;
    const double busy =
        topo.link.bandwidth > 0 ? link_bytes / topo.link.bandwidth : 0;
    out.links.resize(links);
    for (size_t i = 0; i < links; ++i) {
        out.links[i].link = i;
        out.links[i].bytes = link_bytes;
        out.links[i].busy_s = busy;
        out.links[i].utilization =
            raw_makespan > 0 ? busy / raw_makespan : 0;
    }
    return out;
}

} // namespace neo::shard
