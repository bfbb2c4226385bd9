#include "layers.h"

#include <algorithm>

#include "jit/jit_program.h"
#include "vm/decode.h"

namespace perfbench {

const std::vector<std::string> kFig5Apps = {"CG", "MG", "KMEANS", "IS",
                                            "LULESH"};

ft::apps::AppSpec build_app(Tracer& tr, const std::string& name) {
  const auto span = tr.scope("apps.build");
  return ft::apps::build_app(name);
}

void probe_decode_compile(Tracer& tr, const ft::apps::AppSpec& spec) {
  if (!tr.enabled()) return;
  std::shared_ptr<const ft::vm::DecodedProgram> program;
  {
    const auto span = tr.scope("vm.decode");
    program = std::make_shared<const ft::vm::DecodedProgram>(
        ft::vm::DecodedProgram::decode(spec.module));
  }
  if (ft::jit::JitProgram::runtime_enabled()) {
    const auto span = tr.scope("jit.compile");
    const auto jit = ft::jit::JitProgram::compile(*program);
    (void)jit;
  }
}

std::shared_ptr<ft::core::AnalysisSession> make_session(
    Tracer& tr, ft::apps::AppSpec spec) {
  const auto span = tr.scope("core.session");
  return std::make_shared<ft::core::AnalysisSession>(std::move(spec));
}

void warm_golden(Tracer& tr, ft::core::AnalysisSession& s, const Warm& w) {
  {
    const auto span = tr.scope("vm.golden_run");
    (void)s.golden();
  }
  {
    const auto span = tr.scope("trace.golden_trace");
    const auto trace = s.golden_trace();
    tr.count("trace.golden_records", static_cast<double>(trace->size()));
    tr.count("trace.bytes", static_cast<double>(trace->resident_bytes()));
    tr.count("trace.bytes_records", static_cast<double>(trace->size()));
  }
  if (w.region_sites) {
    const auto span = tr.scope("trace.regions");
    (void)s.region_instances();
  }
  {
    const auto span = tr.scope("trace.events");
    (void)s.golden_events();
    tr.count("trace.events_records",
             static_cast<double>(s.golden_trace()->size()));
  }
  if (w.region_sites) {
    for (const auto& rd : s.app().analysis_regions) {
      const auto span = tr.scope("fault.sites");
      (void)s.region_sites(rd.id, 0);
    }
  }
  if (w.whole_sites) {
    const auto span = tr.scope("fault.sites");
    (void)s.whole_program_sites();
  }
  if (w.rates) {
    const auto span = tr.scope("patterns.rates");
    (void)s.pattern_rates();
    tr.count("patterns.rates_records",
             static_cast<double>(s.golden_trace()->size()));
  }
}

std::vector<std::shared_ptr<ft::core::AnalysisSession>> fig5_sessions(
    Tracer& tr) {
  std::vector<std::shared_ptr<ft::core::AnalysisSession>> out;
  for (const auto& name : kFig5Apps) {
    auto spec = build_app(tr, name);
    probe_decode_compile(tr, spec);
    out.push_back(make_session(tr, std::move(spec)));
    warm_golden(tr, *out.back(), Warm{.region_sites = true});
  }
  return out;
}

ft::fault::CampaignResult TracedUnit::result() const {
  ft::fault::CampaignResult r;
  r.trials = prepared.plans.size();
  r.population_bits = prepared.population_bits;
  r.success = success.load();
  r.failed = failed.load();
  r.crashed = crashed.load();
  r.detected_recovered = recovered.load();
  r.detected_unrecoverable = unrecoverable.load();
  return r;
}

std::uint64_t run_traced_units(Tracer& tr, ft::util::Scheduler& sched,
                               std::deque<TracedUnit>& units) {
  struct Chunk {
    TracedUnit* unit;
    std::size_t begin, end;
  };
  std::vector<Chunk> chunks;
  for (auto& u : units) {
    const std::size_t n = u.prepared.plans.size();
    u.remaining = n;
    const std::size_t step =
        std::clamp<std::size_t>(n / (sched.size() * 8), 1, 32);
    for (std::size_t b = 0; b < n; b += step) {
      chunks.push_back({&u, b, std::min(n, b + step)});
    }
  }
  std::atomic<std::uint64_t> trials{0}, instructions{0}, saved{0}, early{0};
  const auto steals0 = sched.steals();
  const double cpu0 = process_cpu_s();
  const double w0 = now_s();
  {
    const auto span = tr.scope("util.parallel_for");
    const auto parent = span.id();
    sched.parallel_for(chunks.size(), [&](std::size_t c) {
      const auto chunk_span = tr.child("fault.trial_chunk", parent);
      auto& u = *chunks[c].unit;
      std::call_once(u.once, [&] {
        const auto prep = tr.scope("fault.prepare");
        u.snapshots =
            ft::fault::prepare_snapshots(*u.session->program(), u.prepared);
        u.order = ft::fault::fork_schedule(u.prepared);
      });
      ft::fault::TrialRunner runner(*u.session->program(), u.prepared,
                                    u.snapshots, u.session->golden()->outputs,
                                    u.session->app().verifier);
      for (std::size_t pos = chunks[c].begin; pos < chunks[c].end; ++pos) {
        ft::fault::TrialAccounting acct;
        switch (runner.run(u.order.empty() ? pos : u.order[pos], &acct)) {
          case ft::fault::Outcome::VerificationSuccess: ++u.success; break;
          case ft::fault::Outcome::VerificationFailed: ++u.failed; break;
          case ft::fault::Outcome::Crashed: ++u.crashed; break;
          case ft::fault::Outcome::DetectedRecovered: ++u.recovered; break;
          case ft::fault::Outcome::DetectedUnrecoverable:
            ++u.unrecoverable;
            break;
        }
        trials.fetch_add(1);
        instructions.fetch_add(acct.instructions);
        saved.fetch_add(acct.prefix_saved + acct.convergence_saved);
        if (acct.early_exit) early.fetch_add(1);
      }
      // The last chunk of a unit frees its waypoints.
      const std::size_t n = chunks[c].end - chunks[c].begin;
      if (u.remaining.fetch_sub(n) == n) {
        u.snapshots = ft::fault::CampaignSnapshots{};
      }
    });
  }
  const double wall = now_s() - w0;
  // The thread calling parallel_for drains chunks too.
  tr.count("util.busy_cpu_s", process_cpu_s() - cpu0);
  tr.count("util.capacity_s", wall * static_cast<double>(sched.size() + 1));
  tr.count("util.steals", static_cast<double>(sched.steals() - steals0));
  tr.count("fault.trials", static_cast<double>(trials.load()));
  tr.count("fault.trial_instructions",
           static_cast<double>(instructions.load()));
  tr.count("fault.instructions_saved", static_cast<double>(saved.load()));
  tr.count("fault.early_exits", static_cast<double>(early.load()));
  return trials.load();
}

std::size_t outcome_sum(const ft::fault::CampaignResult& r) {
  return r.success + r.failed + r.crashed + r.detected_recovered +
         r.detected_unrecoverable;
}

bool same_counts(const ft::fault::CampaignResult& a,
                 const ft::fault::CampaignResult& b) {
  return a.trials == b.trials && a.success == b.success &&
         a.failed == b.failed && a.crashed == b.crashed &&
         a.detected_recovered == b.detected_recovered &&
         a.detected_unrecoverable == b.detected_unrecoverable;
}

ft::fault::CampaignResult reference_campaign(
    ft::core::AnalysisSession& s, const ft::fault::SiteEnumerationResult& sites,
    ft::fault::TargetClass target, const ft::fault::CampaignConfig& cfg) {
  auto prepared =
      ft::fault::prepare_campaign(sites, target, s.app().base, cfg);
  prepared.run_opts.jit = nullptr;  // the decoded interpreter
  const auto golden = s.golden();
  ft::fault::CampaignResult out;
  out.trials = prepared.plans.size();
  for (const auto& plan : prepared.plans) {
    switch (ft::fault::run_trial(*s.program(), prepared, plan, golden->outputs,
                                 s.app().verifier)) {
      case ft::fault::Outcome::VerificationSuccess: ++out.success; break;
      case ft::fault::Outcome::VerificationFailed: ++out.failed; break;
      case ft::fault::Outcome::Crashed: ++out.crashed; break;
      case ft::fault::Outcome::DetectedRecovered:
        ++out.detected_recovered;
        break;
      case ft::fault::Outcome::DetectedUnrecoverable:
        ++out.detected_unrecoverable;
        break;
    }
  }
  return out;
}

}  // namespace perfbench
