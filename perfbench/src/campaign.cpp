// Workload `campaign`: the Fig. 5 request as one batched run_analysis per
// round — CG, MG, KMEANS, IS and LULESH, every analysis region, internal and
// input targets, no store — on sessions built once in set-up.
//
// The trial engine does the work here: untraced vm/jit execution, fault
// snapshot preparation, forked trials and convergence probes, util
// scheduling. trace, acl and patterns do almost none, and the store is
// bypassed.
//
// The traced round performs the same campaign through the layers run_analysis
// hides: fault::prepare_campaign per unit, then run_traced_units.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>

#include "layers.h"
#include "util/scheduler.h"

namespace perfbench {
namespace {

using ft::fault::TargetClass;

/// Trials per (app, region, target) unit.
constexpr std::size_t kTrialsPerUnit = 24;
/// Units recounted trial by trial by the reference check.
constexpr std::size_t kCheckedUnits = 3;

class CampaignWorkload final : public Workload {
 public:
  explicit CampaignWorkload(const Options& opt) : opt_(opt) {}

  void setup(Tracer& tr) override {
    sessions_.clear();  // release the previous set-up first
    sched_.reset();
    sessions_ = fig5_sessions(tr);
    // The caller of parallel_for drains chunks too: workers + 1 runnable
    // threads, at most nproc.
    sched_ = std::make_unique<ft::util::Scheduler>(
        std::max(1u, opt_.nproc - 1));
  }

  ft::fault::CampaignConfig config(std::uint64_t index) const {
    ft::fault::CampaignConfig cfg;
    cfg.trials = kTrialsPerUnit;
    cfg.seed = mix_seed(opt_.seed, index);
    return cfg;
  }

  RoundSample round(Tracer& tr, std::uint64_t index) override {
    return tr.enabled() ? traced_round(tr, index) : untraced_round(index);
  }

  RoundSample untraced_round(std::uint64_t index) {
    const auto cfg = config(index);
    ft::core::AnalysisRequest request;
    for (const auto& s : sessions_) request.session(s);
    request.analysis_regions()
        .target(TargetClass::Internal)
        .target(TargetClass::Input)
        .success_rates(cfg)
        .pool(sched_.get());
    RoundSample out;
    const double t0 = now_s();
    auto report = ft::core::run_analysis(request);
    out.request_ms.push_back((now_s() - t0) * 1e3);
    out.operations = 1;
    out.trials = report.trials_executed;
    out.injections = report.total_trials;
    golden_pipeline_.add(report);
    if (!checked_report_) {
      checked_report_ = std::move(report);
      checked_cfg_ = cfg;
    }
    return out;
  }

  RoundSample traced_round(Tracer& tr, std::uint64_t index) {
    const auto cfg = config(index);
    const double t0 = now_s();
    std::deque<TracedUnit> units;
    {
      const auto span = tr.scope("fault.prepare");
      for (const auto& s : sessions_) {
        for (const auto& rd : s->app().analysis_regions) {
          const auto sites = s->region_sites(rd.id, 0);
          if (!sites->region_found) continue;
          for (const auto target : {TargetClass::Internal, TargetClass::Input}) {
            auto& u = units.emplace_back();
            u.session = s;
            u.prepared = ft::fault::prepare_campaign(*sites, target,
                                                     s->app().base, cfg);
          }
        }
      }
    }
    const auto trials = run_traced_units(tr, *sched_, units);
    RoundSample out;
    out.request_ms.push_back((now_s() - t0) * 1e3);
    out.operations = 1;
    out.trials = trials;
    out.injections = trials;
    return out;
  }

  void finish_trace(Tracer& tr) override { golden_pipeline_.report(tr); }

  void check(Result& out) override {
    out.check(checked_report_.has_value(), "campaign: a round was checked");
    if (!checked_report_) return;
    const auto& report = *checked_report_;
    std::size_t trials = 0;
    for (const auto& e : report.entries) {
      if (!e.region_found) continue;
      // A region without input locations has an empty input population
      // and runs no trials.
      const std::size_t expected =
          e.campaign.population_bits == 0 ? 0 : kTrialsPerUnit;
      trials += e.campaign.trials;
      out.check(e.campaign.trials == expected &&
                    outcome_sum(e.campaign) == e.campaign.trials,
                "campaign: outcome classes of " + e.app + "/" + e.region_name +
                    " sum to its trials");
    }
    out.check(trials > 0 && report.trials_executed == trials,
              "campaign: every unit ran its trials");
    // Recount a seeded subset of units from scratch, one trial at a time.
    std::vector<std::size_t> found;
    for (std::size_t i = 0; i < report.entries.size(); ++i) {
      if (report.entries[i].campaign.trials > 0) found.push_back(i);
    }
    for (std::size_t k = 0; k < kCheckedUnits && !found.empty(); ++k) {
      const auto pick = mix_seed(opt_.seed, 1000 + k) % found.size();
      const auto& e = report.entries[found[pick]];
      found.erase(found.begin() + static_cast<std::ptrdiff_t>(pick));
      const auto it =
          std::find_if(sessions_.begin(), sessions_.end(),
                       [&](const auto& s) { return s->app().name == e.app; });
      if (it == sessions_.end()) {
        out.check(false, "campaign: session of " + e.app);
        continue;
      }
      const auto sites = (*it)->region_sites(e.region_id, e.instance);
      const auto ref =
          reference_campaign(**it, *sites, e.target, *checked_cfg_);
      out.check(same_counts(ref, e.campaign),
                "campaign: " + e.app + "/" + e.region_name +
                    " counts equal the from-scratch interpreter recount");
      std::printf("checked %s/%s %s: %zu/%zu/%zu success/failed/crashed\n",
                  e.app.c_str(), e.region_name.c_str(),
                  e.target == TargetClass::Internal ? "internal" : "input",
                  ref.success, ref.failed, ref.crashed);
    }
  }

 private:
  const Options& opt_;
  std::vector<std::shared_ptr<ft::core::AnalysisSession>> sessions_;
  std::unique_ptr<ft::util::Scheduler> sched_;
  std::optional<ft::core::AnalysisReport> checked_report_;
  std::optional<ft::fault::CampaignConfig> checked_cfg_;
  GoldenPipeline golden_pipeline_;
};

}  // namespace

Result run_campaign(const Options& opt) {
  CampaignWorkload w(opt);
  return drive(w, opt);
}

}  // namespace perfbench
