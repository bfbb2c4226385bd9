// Figure 5: fault-injection success rate per code-region instance at
// iteration 0, for faults on internal vs input locations, over CG, MG,
// KMEANS, IS and LULESH.
//
// Paper shape to check: cg_b/cg_c stand out within CG; MG regions are
// uniformly high; is_b is boosted by the shift pattern; KMEANS input faults
// on k_a/k_b are crash-prone while k_c/k_d tolerate; LULESH is the lowest,
// crash-dominated.
//
// One declarative request covers the whole figure: every region campaign of
// every app is scheduled as a single batched work queue, so regions and
// apps execute concurrently on the shared scheduler.
// Extra flags: --apps=CG,MG,...   restrict the app set (smoke runs use CG).
#include "bench_common.h"

namespace {

int run_main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto names =
      bench::app_list(cli, "apps", "CG,MG,KMEANS,IS,LULESH");
  bench::print_header("Fig. 5 - per-code-region success rates (iteration 0)",
                      cfg);

  core::AnalysisRequest request;
  for (const auto& name : names) request.app(name);
  const auto report =
      core::run_analysis(request.analysis_regions()
                             .target(fault::TargetClass::Internal)
                             .target(fault::TargetClass::Input)
                             .success_rates(cfg.campaign(100)));

  util::Table table({"app", "region", "SR internal", "SR input",
                     "crash internal", "crash input", "pop (bits)"});
  for (const auto& e : report.entries) {
    if (e.target != fault::TargetClass::Internal || !e.region_found) continue;
    const auto* input = report.find(e.app, e.region_name,
                                    fault::TargetClass::Input, e.instance);
    const auto& internal = e.campaign;
    const auto crash_rate = [](const fault::CampaignResult& r) {
      return r.trials ? static_cast<double>(r.crashed) /
                            static_cast<double>(r.trials)
                      : 0.0;
    };
    // A population with no trials (no input sites) has no rates: n/a, not
    // a zero that reads as "every trial failed".
    const bool input_ran = input && input->campaign.trials > 0;
    table.add_row(
        {e.app, e.region_name, util::Table::num(internal.success_rate(), 3),
         input_ran ? util::Table::num(input->campaign.success_rate(), 3)
                   : "n/a",
         util::Table::num(crash_rate(internal), 3),
         input_ran ? util::Table::num(crash_rate(input->campaign), 3) : "n/a",
         std::to_string(internal.population_bits)});
  }
  table.print(std::cout);
  bench::print_report_meta(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
