// Resilience survey: run a statistical fault-injection campaign over every
// code region of a chosen application and rank the regions by natural
// resilience — the workflow a resilience engineer would use to decide
// which regions need protection and which tolerate faults for free
// (the paper's motivation: "avoid overprotecting regions of code that are
// naturally resilient").
//
// The whole survey is one declarative AnalysisRequest; every region's
// internal and input campaigns interleave on the shared pool.
//
//   $ ./resilience_survey --app=CG --trials=150
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/analysis.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

using namespace ft;

namespace {

int run_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto app_name = apps::require_app_name(cli.get("app", "CG"), "app");
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 120));

  fault::CampaignConfig cfg;
  cfg.trials = trials;
  const auto report =
      core::run_analysis(core::AnalysisRequest()
                             .app(app_name)
                             .analysis_regions()
                             .target(fault::TargetClass::Internal)
                             .target(fault::TargetClass::Input)
                             .success_rates(cfg));

  std::printf("resilience survey of %s: %zu regions, %zu injections over "
              "%zu campaigns in %.1f ms (%.0f trials/s)\n",
              app_name.c_str(), report.entries.size() / 2,
              report.total_trials, report.campaign_units, report.campaign_ms,
              report.trials_per_second());
  std::printf("%zu injections per region/class (--trials=N; Leveugle 95%%/3%% "
              "would use %llu)\n\n",
              trials,
              static_cast<unsigned long long>(
                  util::fault_injection_sample_size(1u << 20, 0.95, 0.03)));

  struct Row {
    std::string region;
    double sr_internal, sr_input, crash_rate;
    std::uint64_t population;
  };
  std::vector<Row> rows;
  for (const auto& e : report.entries) {
    if (e.target != fault::TargetClass::Internal || !e.region_found) continue;
    const auto* input = report.find(e.app, e.region_name,
                                    fault::TargetClass::Input, e.instance);
    rows.push_back(Row{
        e.region_name, e.campaign.success_rate(),
        input ? input->campaign.success_rate() : 0.0,
        e.campaign.trials ? static_cast<double>(e.campaign.crashed) /
                                static_cast<double>(e.campaign.trials)
                          : 0.0,
        e.campaign.population_bits});
  }

  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.sr_internal > b.sr_internal;
  });

  util::Table table({"rank", "region", "SR internal", "SR input",
                     "crash rate", "exposure (fault sites)"});
  int rank = 1;
  for (const auto& r : rows) {
    table.add_row({std::to_string(rank++), r.region,
                   util::Table::num(r.sr_internal, 3),
                   util::Table::num(r.sr_input, 3),
                   util::Table::num(r.crash_rate, 3),
                   std::to_string(r.population)});
  }
  table.print(std::cout);

  std::printf("\nreading the table: high-SR regions are naturally resilient\n"
              "(protection there is wasted); low-SR, high-exposure regions\n"
              "are where detectors/replication pay off.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
