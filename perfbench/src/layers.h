// Calls into the library's layers, each wrapped in a span of the
// benchmark's tracer. Untraced runs pass a disabled tracer and pay one
// branch per call.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/app.h"
#include "bench.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "util/scheduler.h"

namespace perfbench {

/// The five applications of Fig. 5 and Table I.
extern const std::vector<std::string> kFig5Apps;

/// apps::build_app inside an `apps.build` span.
ft::apps::AppSpec build_app(Tracer& tr, const std::string& name);

/// Traced runs only: decode and JIT-compile the module once more outside
/// any session, inside `vm.decode` / `jit.compile` spans, so the two costs
/// a session constructor pays together are attributed apart.
void probe_decode_compile(Tracer& tr, const ft::apps::AppSpec& spec);

/// Session construction (decode + JIT compile) inside a `core.session`
/// span.
std::shared_ptr<ft::core::AnalysisSession> make_session(
    Tracer& tr, ft::apps::AppSpec spec);

/// What warm_golden fills besides the golden run, trace and event index.
struct Warm {
  bool region_sites = false;  // every analysis region, instance 0
  bool whole_sites = false;
  bool rates = false;
};

/// Fill the session's golden caches through its public accessors, one span
/// per layer: vm.golden_run, trace.golden_trace, trace.regions (with region
/// sites), trace.events, fault.sites, patterns.rates.
void warm_golden(Tracer& tr, ft::core::AnalysisSession& s, const Warm& w);

/// The Fig. 5 applications as sessions with golden run, trace, events and
/// every analysis region's sites warm (the campaign and patterns set-up).
std::vector<std::shared_ptr<ft::core::AnalysisSession>> fig5_sessions(
    Tracer& tr);

/// run_analysis wall time outside its campaign phase, summed over the
/// untraced rounds and handed to the tracer as core.golden_pipeline_ms.
struct GoldenPipeline {
  double ms = 0;
  std::size_t calls = 0;

  void add(const ft::core::AnalysisReport& r) {
    ms += r.wall_ms - r.campaign_ms;
    ++calls;
  }
  void report(Tracer& tr) const {
    tr.count("core.golden_pipeline_ms", ms);
    tr.count("core.golden_pipeline_calls", static_cast<double>(calls));
  }
};

/// One campaign unit of the traced executor.
struct TracedUnit {
  std::shared_ptr<ft::core::AnalysisSession> session;
  ft::fault::PreparedCampaign prepared;
  ft::fault::CampaignSnapshots snapshots;
  std::vector<std::uint32_t> order;
  std::once_flag once;
  std::atomic<std::size_t> remaining{0};
  std::atomic<std::size_t> success{0}, failed{0}, crashed{0}, recovered{0},
      unrecoverable{0};

  /// Outcome counts once run_traced_units returned.
  [[nodiscard]] ft::fault::CampaignResult result() const;
};

/// Run every trial of `units` as one parallel_for over trial chunks — the
/// shape of run_analysis's batched executor: a unit's waypoint snapshots
/// are placed lazily by its first chunk (fault::prepare_snapshots) and
/// trials run on fault::TrialRunner. Spans: util.parallel_for around the
/// phase, fault.trial_chunk per chunk, fault.prepare per snapshot
/// placement; counters for trials, instructions, savings, early exits,
/// steals and busy CPU. Returns the trials run.
std::uint64_t run_traced_units(Tracer& tr, ft::util::Scheduler& sched,
                               std::deque<TracedUnit>& units);

/// Outcome-class sum of a campaign result.
[[nodiscard]] std::size_t outcome_sum(const ft::fault::CampaignResult& r);

/// True when two results carry the same outcome counts.
[[nodiscard]] bool same_counts(const ft::fault::CampaignResult& a,
                               const ft::fault::CampaignResult& b);

/// Recount one campaign trial by trial with fault::run_trial: from
/// scratch (no fork, no early exit), on the decoded interpreter (the JIT
/// is switched off), on the calling thread. Plans come from
/// fault::prepare_campaign with the same config, so they are the plans
/// the campaign under test drew.
[[nodiscard]] ft::fault::CampaignResult reference_campaign(
    ft::core::AnalysisSession& s, const ft::fault::SiteEnumerationResult& sites,
    ft::fault::TargetClass target, const ft::fault::CampaignConfig& cfg);

}  // namespace perfbench
