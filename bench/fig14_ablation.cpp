/**
 * Fig 14 — cumulative effect of the optimization steps on the
 * applications, normalised to the TensorFHE starting point:
 *   +KLSS → +dataflow opted → +ten-step NTT → +FP64 TCU (the paper's
 * four axes), then the launch-elimination rungs
 *   +kernel fusion (elementwise) → +graph capture.
 */
#include "apps/schedules.h"
#include "baselines/backends.h"
#include "bench_util.h"

using namespace neo;

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Report report(opts, "fig14", "Optimization ablation (normalised)");
    bench::banner("Fig 14", "Optimization ablation (normalised)");
    auto ladder = baselines::ablation_ladder();

    struct App
    {
        const char *name;
        apps::Schedule (*make)(const ckks::CkksParams &);
    };
    auto r20 = [](const ckks::CkksParams &p) { return apps::resnet(p, 20); };
    const App apps_list[] = {
        {"PackBootstrap", apps::pack_bootstrap},
        {"HELR", apps::helr_iteration},
        {"ResNet-20", +r20},
    };

    TextTable t;
    std::vector<std::string> head = {"config"};
    for (const auto &a : apps_list)
        head.push_back(a.name);
    t.header(head);

    std::vector<double> base;
    for (size_t r = 0; r < ladder.size(); ++r) {
        const auto &rung = ladder[r];
        auto m = rung.model();
        std::vector<std::string> row = {rung.name};
        for (size_t i = 0; i < std::size(apps_list); ++i) {
            const double s =
                apps::run_schedule(apps_list[i].make(rung.params), m).seconds;
            if (base.size() <= i)
                base.push_back(s);
            row.push_back(strfmt("%.3f (%s)", s / base[i],
                                 format_time(s).c_str()));
            // Gate on the final (fully-optimized) rung — that is Neo.
            if (r + 1 == ladder.size())
                report.metric(strfmt("neo.%s.total_s", apps_list[i].name),
                              s);
        }
        t.row(row);
    }
    t.print();
    std::printf("\nPaper reference: each step lowers relative time; the "
                "final configuration is Neo.\n");
    report.write();
    return 0;
}
