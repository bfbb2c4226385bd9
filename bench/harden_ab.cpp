// Automatic-hardening A/B: the campaign-guided transform pass against the
// hand-built CG variant of §VII (apps::build_cg_hardened, the paper's
// source-level patterns written by hand).
//
// The A side runs core::run_hardening on CG: a baseline per-region campaign
// guides the pass, the pass inserts DWC + ABFT detectors, and a re-campaign
// of the emitted module (with checkpoint/rollback recovery enabled) measures
// detection coverage against static instruction overhead per region. The B
// side campaigns the hand-built variant for a reference point — it has no
// detectors, so its metric is the plain success rate.
//
// Gates (the binary exits nonzero; scripts/bench_smoke.sh section 8 fails
// under pipefail):
//   - every protected region's effective success rate (verified + recovered)
//     must be >= its baseline success rate minus sampling noise;
//   - the aggregate static overhead across protected regions (total added /
//     total original instructions) must stay <= 2x — per-region multipliers
//     on ten-instruction regions are reported but not gated;
//   - at least one trial must have been detected-and-recovered (the
//     rollback path actually exercised, not just compiled).
//
//   harden_ab [--trials=N] [--seed=N]
#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "harden/harden.h"

namespace {

int run_main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  bench::print_header("hardening A/B - transform pass vs hand-built CG", cfg);

  auto camp = cfg.campaign(60);
  camp.recovery.enabled = true;

  // --- A: campaign-guided pass ---------------------------------------------
  harden::HardenConfig hc;
  // The throttle keeps the duplicated-site count proportional to region
  // size; without it DWC alone can triple a tight loop body.
  hc.max_dwc_per_region = 8;
  hc.dwc_loads = false;

  util::Stopwatch sw;
  const auto report = core::AnalysisRequest()
                          .app("CG")
                          .analysis_regions()
                          .target(fault::TargetClass::Internal)
                          .success_rates(camp)
                          .app_campaign(camp)
                          .harden(hc);
  const double auto_s = sw.seconds();

  util::Table t({"region", "baseline SR", "hardened SR", "detection", "dwc",
                 "abft", "overhead"});
  bool coverage_ok = true;
  double worst_overhead = 1.0;
  std::size_t total_original = 0;
  std::size_t total_added = 0;
  for (const auto& app : report.apps) {
    for (const auto& r : app.regions) {
      t.add_row({r.region_name, util::Table::num(r.baseline_success_rate, 3),
                 util::Table::num(r.hardened_success_rate, 3),
                 util::Table::num(r.detection_rate, 3),
                 std::to_string(r.dwc_sites), std::to_string(r.abft_cells),
                 util::Table::num(r.overhead(), 2) + "x"});
      // Sampling-noise allowance: two campaigns of N trials each have a
      // combined standard error of about sqrt(2 * p(1-p) / N); three
      // sigmas of that at p=0.5 bounds the gate.
      const double n = static_cast<double>(camp.trials == 0 ? 60 : camp.trials);
      const double noise = 3.0 * std::sqrt(0.5 / n);
      if (r.hardened_success_rate + noise < r.baseline_success_rate) {
        coverage_ok = false;
      }
      worst_overhead = std::max(worst_overhead, r.overhead());
      total_original += r.original_instructions;
      total_added += r.added_instructions;
    }
  }
  t.print(std::cout);
  const double aggregate_overhead =
      total_original == 0 ? 1.0
                          : 1.0 + static_cast<double>(total_added) /
                                      static_cast<double>(total_original);
  const bool overhead_ok = aggregate_overhead <= 2.0;

  std::size_t recovered = 0;
  std::size_t detected = 0;
  for (const auto& e : report.hardened.entries) {
    recovered += e.campaign.detected_recovered;
    detected += e.campaign.detected_recovered + e.campaign.detected_unrecoverable;
  }
  const auto* base_app = report.baseline.find_app("CG");
  const auto* hard_app = report.hardened.find_app("CG");
  const double base_sr =
      base_app && base_app->whole_app ? base_app->whole_app->success_rate()
                                      : 0.0;
  const double hard_sr = hard_app && hard_app->whole_app
                             ? hard_app->whole_app->effective_success_rate()
                             : 0.0;
  if (hard_app && hard_app->whole_app) {
    recovered += hard_app->whole_app->detected_recovered;
    detected += hard_app->whole_app->detected_recovered +
                hard_app->whole_app->detected_unrecoverable;
  }

  // --- B: hand-built variant ------------------------------------------------
  sw.reset();
  auto hand = apps::build_cg_hardened({true, true});
  hand.name = "CG-hand";
  const auto hand_report = core::run_analysis(
      core::AnalysisRequest().app(std::move(hand)).app_campaign(camp));
  const double hand_s = sw.seconds();
  const auto* hand_app = hand_report.find_app("CG-hand");
  const double hand_sr = hand_app && hand_app->whole_app
                             ? hand_app->whole_app->success_rate()
                             : 0.0;

  std::printf("\nwhole-app SR: baseline %.3f | pass-hardened %.3f "
              "(effective, %.3f detection) | hand-built %.3f\n",
              base_sr, hard_sr,
              hard_app && hard_app->whole_app
                  ? hard_app->whole_app->detection_rate()
                  : 0.0,
              hand_sr);
  std::printf("detected trials: %zu (%zu recovered via rollback)\n", detected,
              recovered);
  std::printf("wall: pass pipeline %.1f ms | hand-built campaign %.1f ms\n",
              auto_s * 1e3, hand_s * 1e3);
  std::printf("aggregate overhead: %.2fx (%zu added / %zu original static "
              "instructions; worst region %.2fx)\n",
              aggregate_overhead, total_added, total_original, worst_overhead);

  const bool recovery_ok = recovered > 0;
  std::printf("harden gates: coverage %s, overhead %s, recovery %s\n",
              coverage_ok ? "OK" : "REGRESSION",
              overhead_ok ? "OK" : "REGRESSION",
              recovery_ok ? "OK" : "INACTIVE");
  return coverage_ok && overhead_ok && recovery_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
