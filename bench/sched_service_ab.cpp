// Scheduler scaling: two workloads, each run on util::Scheduler(1) and on
// util::Scheduler(W) (W = --workers, default hardware_concurrency):
//
//  - the Fig. 5 request on CG (every analysis region x {internal, input},
//    --trials per region and target, default 40), dispatched as ONE
//    batched work queue;
//  - an imbalanced mix of three concurrent clients sharing one scheduler —
//    a CG whole-app campaign (light), a LULESH-RANKED cross-rank campaign
//    (heavy) and an MG compositional campaign (medium) — the service front
//    end's admission pattern, minus the service. Its trial counts are fixed:
//    the imbalance is the point, and it is long enough (several hundred ms
//    on four workers) that the speedup is measurable.
//
// On one worker every parallel_for runs inline on its caller, so the
// 1-worker Fig. 5 leg is serial and the 1-worker mix is three serial
// clients. scripts/bench_smoke.sh gates each speedup against an absolute
// floor (section 3: the Fig. 5 request; section 10: the mix) on hosts with
// >= 4 cores; smaller hosts print "skipped", since there wall clock tracks
// total CPU work whatever the worker count.
//
// Outcome counts must be IDENTICAL across worker counts, repetitions and a
// third mix leg routed through core::CampaignService (plans are drawn per
// unit from the seeds, never from the schedule); the bench exits nonzero on
// any mismatch.
//
//   sched_service_ab [--trials=N] [--seed=N] [--workers=N]
#include <algorithm>
#include <thread>

#include "bench_common.h"
#include "core/service.h"
#include "util/scheduler.h"

namespace {

using namespace ft;

struct MixReports {
  core::AnalysisReport cg;
  core::AnalysisReport lulesh;
  core::AnalysisReport mg;
  double wall_ms = 0.0;
};

struct MixConfigs {
  fault::CampaignConfig cg;
  fault::RankCampaignConfig rank;
  fault::CampaignConfig mg;
};

core::AnalysisRequest cg_request(const MixConfigs& mix) {
  return core::AnalysisRequest().app("CG").app_campaign(mix.cg);
}
core::AnalysisRequest lulesh_request(const MixConfigs& mix) {
  return core::AnalysisRequest().app("LULESH-RANKED").rank_campaign(mix.rank);
}
core::AnalysisRequest mg_request(const MixConfigs& mix) {
  return core::AnalysisRequest().app("MG").compositional(mix.mg);
}

/// The three clients as three concurrent threads sharing one scheduler.
MixReports run_mix(util::Scheduler& sched, const MixConfigs& mix) {
  MixReports out;
  util::Stopwatch sw;
  std::thread t_cg(
      [&] { out.cg = core::run_analysis(cg_request(mix).pool(&sched)); });
  std::thread t_lu([&] {
    out.lulesh = core::run_analysis(lulesh_request(mix).pool(&sched));
  });
  std::thread t_mg(
      [&] { out.mg = core::run_analysis(mg_request(mix).pool(&sched)); });
  t_cg.join();
  t_lu.join();
  t_mg.join();
  out.wall_ms = sw.millis();
  return out;
}

bool same_counts(const fault::CampaignResult& a,
                 const fault::CampaignResult& b) {
  return a.trials == b.trials && a.success == b.success &&
         a.failed == b.failed && a.crashed == b.crashed &&
         a.detected_recovered == b.detected_recovered &&
         a.detected_unrecoverable == b.detected_unrecoverable &&
         a.population_bits == b.population_bits;
}

bool same_rank_counts(const fault::RankCampaignResult& a,
                      const fault::RankCampaignResult& b) {
  return a.trials == b.trials && a.masked_locally == b.masked_locally &&
         a.absorbed_by_collective == b.absorbed_by_collective &&
         a.propagated == b.propagated &&
         a.corrupted_output == b.corrupted_output && a.trapped == b.trapped &&
         a.population_bits == b.population_bits;
}

bool same_mix(const MixReports& a, const MixReports& b, const char* what) {
  const bool ok =
      same_counts(*a.cg.find_app("CG")->whole_app,
                  *b.cg.find_app("CG")->whole_app) &&
      same_rank_counts(*a.lulesh.find_app("LULESH-RANKED")->rank_campaign,
                       *b.lulesh.find_app("LULESH-RANKED")->rank_campaign) &&
      same_counts(a.mg.find_app("MG")->compositional->counts,
                  b.mg.find_app("MG")->compositional->counts);
  if (!ok) std::printf("COUNT MISMATCH: mix, %s\n", what);
  return ok;
}

bool same_entries(const core::AnalysisReport& a, const core::AnalysisReport& b,
                  const char* what) {
  bool ok = a.entries.size() == b.entries.size();
  for (std::size_t i = 0; ok && i < a.entries.size(); ++i) {
    ok = same_counts(a.entries[i].campaign, b.entries[i].campaign);
  }
  if (!ok) std::printf("COUNT MISMATCH: fig5 request, %s\n", what);
  return ok;
}

int run_main(int argc, char** argv) {
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  bench::print_header("scheduler scaling - 1 worker vs all cores", cfg);

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const auto workers_arg = cli.get_int("workers", static_cast<long>(cores));
  if (workers_arg < 1) {
    throw std::invalid_argument("--workers: expected a count >= 1, got " +
                                std::to_string(workers_arg));
  }
  const auto workers = static_cast<std::size_t>(workers_arg);

  const auto fig5 = core::AnalysisRequest()
                        .app("CG")
                        .analysis_regions()
                        .target(fault::TargetClass::Internal)
                        .target(fault::TargetClass::Input)
                        .success_rates(cfg.campaign(40));
  MixConfigs mix;
  mix.cg.trials = 192;
  mix.cg.seed = cfg.seed;
  mix.rank.nranks = 4;
  mix.rank.trials = 48;
  mix.rank.seed = cfg.seed;
  mix.mg.trials = 128;
  mix.mg.seed = cfg.seed;

  std::printf("fig5 request: CG, every analysis region x {internal, input}\n"
              "mix: CG app campaign (%zu trials) + LULESH-RANKED rank "
              "campaign (4 ranks, %zu trials) + MG compositional (%zu "
              "trials), 3 concurrent clients\n\n",
              mix.cg.trials, mix.rank.trials, mix.mg.trials);

  // Alternate worker counts to keep cache/frequency effects symmetric;
  // best-of per leg. Index 0 is one worker, index 1 all workers.
  double fig5_best[2] = {1e30, 1e30};
  double mix_best[2] = {1e30, 1e30};
  core::AnalysisReport fig5_ref;
  MixReports mix_ref;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const int k : {0, 1}) {
      const std::size_t n = k == 0 ? 1 : workers;
      util::Scheduler sched(n);
      auto f = core::run_analysis(core::AnalysisRequest(fig5).pool(&sched));
      auto m = run_mix(sched, mix);
      const double fig5_ms = f.wall_ms;
      const double mix_ms = m.wall_ms;
      if (rep == 0 && k == 0) {
        fig5_ref = std::move(f);
        mix_ref = std::move(m);
      } else if (!same_entries(f, fig5_ref, "across worker counts") ||
                 !same_mix(m, mix_ref, "across worker counts")) {
        return 1;
      }
      fig5_best[k] = std::min(fig5_best[k], fig5_ms);
      mix_best[k] = std::min(mix_best[k], mix_ms);
      std::printf("rep %d, %zu worker%s: fig5 %.1f ms, mix %.1f ms "
                  "(%llu steals, max queue depth %llu)\n",
                  rep, n, n == 1 ? "" : "s", fig5_ms, mix_ms,
                  static_cast<unsigned long long>(sched.steals()),
                  static_cast<unsigned long long>(sched.queue_depth_max()));
    }
  }

  // Third mix leg: the async service front end on all workers. Counts must
  // again be identical; the stats line shows the multiplexing.
  {
    util::Scheduler sched(workers);
    core::ServiceOptions opts;
    opts.scheduler = &sched;
    core::CampaignService service(opts);
    MixReports r;
    util::Stopwatch sw;
    auto f_cg = service.submit(cg_request(mix));
    auto f_lu = service.submit(lulesh_request(mix));
    auto f_mg = service.submit(mg_request(mix));
    r.cg = f_cg.get();
    r.lulesh = f_lu.get();
    r.mg = f_mg.get();
    r.wall_ms = sw.millis();
    if (!same_mix(r, mix_ref, "service vs scheduler")) return 1;
    const auto st = service.stats();
    std::printf("\nservice leg: %.1f ms, %llu requests admitted, "
                "%llu sessions built\n",
                r.wall_ms, static_cast<unsigned long long>(st.requests_admitted),
                static_cast<unsigned long long>(st.sessions_created));
  }

  std::printf("\nfig5 request: 1 worker %.1f ms, %zu workers %.1f ms\n",
              fig5_best[0], workers, fig5_best[1]);
  std::printf("mix: 1 worker %.1f ms, %zu workers %.1f ms\n", mix_best[0],
              workers, mix_best[1]);
  std::printf("counts: identical across 1 worker, %zu workers and service\n",
              workers);
  if (cores < 4) {
    // Too few cores for the comparison to measure the scheduler.
    std::printf("fig5 scaling: skipped (%u-core host)\n", cores);
    std::printf("mix scaling: skipped (%u-core host)\n", cores);
  } else {
    std::printf("fig5 scaling: %.2fx\n", fig5_best[0] / fig5_best[1]);
    std::printf("mix scaling: %.2fx\n", mix_best[0] / mix_best[1]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
