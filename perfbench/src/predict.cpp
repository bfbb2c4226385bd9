// Workload `predict`: the Table IV pipeline on cold sessions for all ten
// applications. A round runs, per application, one run_analysis asking for
// the pattern rates and a small whole-application campaign — each on a
// session built for that call, nproc - 1 applications at a time — and then
// the Bayesian regression fit and its leave-one-out validation. The
// applications are built in set-up; the sessions are cold by design. (Run
// one application after another, its figures drifted by up to 20% between
// runs with the host's load.)
//
// The golden pipeline dominates: decode, JIT compile, the golden and
// traced golden runs, the location events over the golden trace, pattern
// rates and whole-program site enumeration. The traced round calls the
// session accessors one by one, then fault::prepare_campaign and the
// traced trial executor.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>

#include "layers.h"
#include "model/regression.h"
#include "reference.h"

namespace perfbench {
namespace {

using ft::patterns::PatternKind;

/// Whole-application campaign trials per application.
constexpr std::size_t kTrials = 32;

/// Table IV feature order.
constexpr PatternKind kFeatures[] = {
    PatternKind::ConditionalStatement,   PatternKind::Shifting,
    PatternKind::Truncation,             PatternKind::DeadCorruptedLocations,
    PatternKind::RepeatedAdditions,      PatternKind::DataOverwriting,
};

class PredictWorkload final : public Workload {
 public:
  explicit PredictWorkload(const Options& opt) : opt_(opt) {}

  void setup(Tracer& tr) override {
    specs_.clear();
    sched_.reset();
    for (const auto& name : ft::apps::all_app_names()) {
      specs_.push_back(build_app(tr, name));
      probe_decode_compile(tr, specs_.back());
    }
    // One worker: the campaigns are small and the analyses run side by
    // side on client threads instead. With nproc - 1 workers running every
    // app's trials, glibc's per-thread arenas kept memory freed across
    // threads and peak RSS swung between 47 and 80 MB from run to run.
    sched_ = std::make_unique<ft::util::Scheduler>(1);
  }

  ft::fault::CampaignConfig config(std::uint64_t index, std::size_t app) const {
    ft::fault::CampaignConfig cfg;
    cfg.trials = kTrials;
    cfg.confidence = 0.99;
    cfg.margin = 0.01;
    cfg.seed = mix_seed(opt_.seed, index * 64 + app);
    return cfg;
  }

  /// Threads that run the per-application analyses: with the scheduler's
  /// worker, nproc runnable in all.
  std::size_t clients() const {
    return std::max<std::size_t>(1, opt_.nproc - 1);
  }

  RoundSample round(Tracer& tr, std::uint64_t index) override {
    RoundSample out;
    const double t0 = now_s();
    const std::size_t n = specs_.size();
    std::vector<ft::patterns::PatternRates> rates(n);
    std::vector<ft::fault::CampaignResult> campaigns(n);
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> failed{0};
    std::mutex mu;
    const auto round_span = tr.current();
    // The ten analyses are independent: client threads take them in turn.
    const auto client = [&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          if (tr.enabled()) {
            const auto span = tr.child("bench.app", round_span);
            traced_app(tr, i, config(index, i), rates[i], campaigns[i]);
            continue;
          }
          auto report = ft::core::run_analysis(ft::core::AnalysisRequest()
                                                   .app(specs_[i])
                                                   .pattern_rates()
                                                   .app_campaign(config(index, i))
                                                   .pool(sched_.get()));
          rates[i] = *report.apps[0].rates;
          campaigns[i] = *report.apps[0].whole_app;
          std::lock_guard lock(mu);
          golden_pipeline_.add(report);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "analysis of app %zu failed: %s\n", i, e.what());
          ++failed;
        }
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients(); ++c) threads.emplace_back(client);
    for (auto& t : threads) t.join();

    out.operations = n;
    out.failed = failed.load();
    ft::model::Matrix x(n, ft::patterns::kNumPatterns);
    std::vector<double> sr(n);
    for (std::size_t i = 0; i < n; ++i) {
      out.trials += campaigns[i].trials;
      out.injections += campaigns[i].trials;
      for (std::size_t j = 0; j < ft::patterns::kNumPatterns; ++j) {
        x.at(i, j) = rates[i].of(kFeatures[j]);
      }
      sr[i] = campaigns[i].success_rate();
    }
    if (first_) {
      rates_ = rates;
      campaigns_ = campaigns;
      for (std::size_t i = 0; i < n; ++i) cfgs_.push_back(config(index, i));
    }
    {
      const auto span = tr.scope("model.fit");
      ft::model::RegressionOptions opts;
      opts.prior_precision = 1e-6;
      ft::model::BayesianLinearRegression reg;
      reg.fit(x, sr, opts);
      const double r2 = reg.r_squared(x, sr);
      const auto loo = ft::model::leave_one_out(x, sr, opts);
      ++out.operations;
      if (first_) {
        r_squared_ = r2;
        loo_ = loo.predicted;
      }
    }
    first_ = false;
    out.request_ms.push_back((now_s() - t0) * 1e3);
    return out;
  }

  /// run_analysis's per-application work, one layer call at a time.
  void traced_app(Tracer& tr, std::size_t i,
                  const ft::fault::CampaignConfig& cfg,
                  ft::patterns::PatternRates& rates,
                  ft::fault::CampaignResult& campaign) {
    auto session = make_session(tr, specs_[i]);
    warm_golden(tr, *session, Warm{.whole_sites = true, .rates = true});
    rates = *session->pattern_rates();
    std::deque<TracedUnit> units;
    {
      const auto span = tr.scope("fault.prepare");
      auto& u = units.emplace_back();
      u.session = session;
      u.prepared = ft::fault::prepare_campaign(
          *session->whole_program_sites(), ft::fault::TargetClass::Internal,
          session->app().base, cfg);
    }
    (void)run_traced_units(tr, *sched_, units);
    campaign = units.front().result();
  }

  void finish_trace(Tracer& tr) override { golden_pipeline_.report(tr); }

  void check(Result& out) override {
    out.check(rates_.size() == specs_.size(), "predict: a round was checked");
    if (rates_.size() != specs_.size()) return;
    // Rates recounted by a naive pass over each application's golden
    // records, and a seeded campaign recounted from scratch.
    const auto recount = mix_seed(opt_.seed, 4242) % specs_.size();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      ft::core::AnalysisSession session(specs_[i]);
      const auto want = reference_rates(session.golden_trace()->view());
      const auto& got = rates_[i];
      bool same = want.total_instructions == got.total_instructions &&
                  want.total_writes == got.total_writes;
      for (const auto kind :
           {PatternKind::ConditionalStatement, PatternKind::Shifting,
            PatternKind::Truncation, PatternKind::DeadCorruptedLocations,
            PatternKind::DataOverwriting}) {
        same = same && want.of(kind) == got.of(kind);
      }
      out.check(same, "predict: pattern rates of " + session.app().name +
                          " equal the naive recount");
      const auto& c = campaigns_[i];
      out.check(c.trials == kTrials && outcome_sum(c) == c.trials,
                "predict: outcome classes of " + session.app().name +
                    " sum to its trials");
      if (i == recount) {
        const auto ref = reference_campaign(
            session, *session.whole_program_sites(),
            ft::fault::TargetClass::Internal, cfgs_[i]);
        out.check(same_counts(ref, c),
                  "predict: " + session.app().name +
                      " campaign equals the from-scratch recount");
        std::printf("checked %s whole-app campaign: %zu/%zu/%zu "
                    "success/failed/crashed\n",
                    session.app().name.c_str(), ref.success, ref.failed,
                    ref.crashed);
      }
    }
    bool finite = std::isfinite(r_squared_);
    for (const double p : loo_) finite = finite && p >= 0.0 && p <= 1.0;
    out.check(finite && loo_.size() == specs_.size(),
              "predict: fit and leave-one-out predictions are well formed");
    std::printf("Table IV fit: R^2 %.3f over %zu applications\n", r_squared_,
                specs_.size());
  }

 private:
  const Options& opt_;
  std::vector<ft::apps::AppSpec> specs_;
  std::unique_ptr<ft::util::Scheduler> sched_;
  bool first_ = true;
  std::vector<ft::patterns::PatternRates> rates_;
  std::vector<ft::fault::CampaignResult> campaigns_;
  std::vector<ft::fault::CampaignConfig> cfgs_;
  double r_squared_ = 0;
  std::vector<double> loo_;
  GoldenPipeline golden_pipeline_;
};

}  // namespace

Result run_predict(const Options& opt) {
  PredictWorkload w(opt);
  return drive(w, opt);
}

}  // namespace perfbench
