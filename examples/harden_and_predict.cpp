// The two use cases of §VII on one screen:
//   1. resilience-aware design — harden CG's makea phase with the
//      campaign-guided transform pass (DWC + ABFT detectors, rollback
//      recovery) and measure the coverage it buys, with the hand-written
//      pattern variants of Fig. 12 / Fig. 13 as the A/B reference;
//   2. resilience prediction — fit the Eq. 3 regression on a set of apps'
//      pattern rates and predict the success rate of a held-out app
//      without running a campaign on it.
//
// Each use case batches onto the shared pool: the hardening pipeline runs
// baseline campaign -> transform -> re-campaign as one request pair, and
// use case 2 measures all ten apps' rates + campaigns in one request.
//
//   $ ./harden_and_predict --trials=150 --holdout=KMEANS
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "core/analysis.h"
#include "harden/harden.h"
#include "model/regression.h"
#include "util/cli.h"
#include "util/table.h"

using namespace ft;

namespace {

int run_main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 150));
  const auto holdout = cli.get("holdout", "KMEANS");

  fault::CampaignConfig cfg;
  cfg.trials = trials;

  // --- Use case 1 -----------------------------------------------------------
  std::printf("=== use case 1: hardening CG's makea phase ===\n");

  // 1a. The automatic pipeline: the baseline campaign on cg_makea guides
  // the transform pass, a re-campaign of the emitted module (rollback
  // recovery enabled) measures the coverage the detectors buy.
  fault::CampaignConfig rcfg = cfg;
  rcfg.recovery.enabled = true;
  harden::HardenConfig hc;
  hc.max_dwc_per_region = 8;  // overhead throttle for the tight loop body
  const auto pass_report = core::AnalysisRequest()
                               .app("CG")
                               .region("cg_makea")
                               .target(fault::TargetClass::Internal)
                               .success_rates(rcfg)
                               .app_campaign(rcfg)
                               .harden(hc);

  util::Table t0({"region", "baseline SR", "hardened SR", "detection",
                  "dwc", "abft", "overhead"});
  for (const auto& app : pass_report.apps) {
    for (const auto& r : app.regions) {
      t0.add_row({r.region_name, util::Table::num(r.baseline_success_rate, 3),
                  util::Table::num(r.hardened_success_rate, 3),
                  util::Table::num(r.detection_rate, 3),
                  std::to_string(r.dwc_sites), std::to_string(r.abft_cells),
                  util::Table::num(r.overhead(), 2) + "x"});
    }
  }
  t0.print(std::cout);
  const auto* auto_app = pass_report.hardened.find_app("CG");
  if (auto_app && auto_app->whole_app) {
    std::printf("pass-hardened whole-app SR: %.3f effective "
                "(%zu trials recovered via rollback)\n",
                auto_app->whole_app->effective_success_rate(),
                auto_app->whole_app->detected_recovered);
  }

  // 1b. A/B reference: the paper's hand-written pattern variants.
  std::printf("\n-- hand-built pattern variants (Fig. 12 / Fig. 13) --\n");
  struct V {
    const char* label;
    apps::CgHardening h;
  };
  const V variants[] = {{"baseline", {false, false}},
                        {"dcl+overwrite", {true, false}},
                        {"truncation", {false, true}},
                        {"all", {true, true}}};

  core::AnalysisRequest harden;
  for (const auto& v : variants) {
    auto app = (v.h.dcl_overwrite || v.h.truncation)
                   ? apps::build_cg_hardened(v.h)
                   : apps::build_cg();
    app.name = v.label;
    harden.app(std::move(app));
  }
  const auto harden_report = core::run_analysis(
      harden.region("cg_makea")
          .target(fault::TargetClass::Internal)
          .success_rates(cfg)
          .app_campaign(cfg));

  util::Table t1({"variant", "whole-app SR", "makea-phase SR"});
  for (const auto& v : variants) {
    const auto* app_report = harden_report.find_app(v.label);
    const auto* phase = harden_report.find(v.label, "cg_makea",
                                           fault::TargetClass::Internal);
    t1.add_row({v.label,
                util::Table::num(app_report && app_report->whole_app
                                     ? app_report->whole_app->success_rate()
                                     : 0.0,
                                 3),
                util::Table::num(
                    phase ? phase->campaign.success_rate() : 0.0, 3)});
  }
  t1.print(std::cout);

  // --- Use case 2 -----------------------------------------------------------
  std::printf("\n=== use case 2: predicting %s's success rate ===\n",
              holdout.c_str());
  std::vector<std::string> train;
  for (const auto& n : apps::all_app_names()) {
    if (n != holdout) train.push_back(n);
  }

  // One batched request measures rates + campaigns for all ten apps (the
  // holdout's campaign only serves the measured-vs-predicted comparison).
  core::AnalysisRequest predict_req;
  for (const auto& n : train) predict_req.app(n);
  predict_req.app(holdout);
  const auto predict_report =
      core::run_analysis(predict_req.pattern_rates().app_campaign(cfg));

  model::Matrix x(train.size(), patterns::kNumPatterns);
  std::vector<double> y;
  for (std::size_t i = 0; i < train.size(); ++i) {
    const auto& app_report = predict_report.apps[i];
    for (std::size_t j = 0; j < patterns::kNumPatterns; ++j) {
      x.at(i, j) = app_report.rates->rate[j];
    }
    y.push_back(app_report.whole_app->success_rate());
    std::printf("  trained on %-8s (measured SR %.3f)\n", train[i].c_str(),
                y.back());
  }

  model::BayesianLinearRegression reg;
  model::RegressionOptions opts;
  opts.prior_precision = 1e-6;
  reg.fit(x, y, opts);

  const auto& held = predict_report.apps.back();
  std::vector<double> features(patterns::kNumPatterns);
  for (std::size_t j = 0; j < patterns::kNumPatterns; ++j) {
    features[j] = held.rates->rate[j];
  }
  const double predicted = std::clamp(reg.predict(features), 0.0, 1.0);
  const double measured = held.whole_app->success_rate();

  std::printf("\npredicted SR of %s from pattern rates alone: %.3f\n",
              holdout.c_str(), predicted);
  std::printf("measured SR via fault injection:              %.3f\n",
              measured);
  std::printf("prediction error: %.1f%%  |  model R^2 on training set: %.3f\n",
              measured > 0 ? 100.0 * std::abs(predicted - measured) / measured
                           : 0.0,
              reg.r_squared(x, y));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
