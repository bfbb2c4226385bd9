// Workload `patterns`: the Table I sweep. Each round draws a seeded set of
// fault plans — internal and input targets, every analysis region of CG,
// MG, KMEANS, IS and LULESH — and runs AnalysisSession::patterns_for on
// each, spread over nproc plain threads of the benchmark. No JIT, no
// trials, no scheduler. (On one thread its figures drifted by up to 25%
// between runs with the host's load; spread over the cores they hold.)
//
// The work splits between the lockstep traced diff (acl), the location
// event index over the diff records (trace) and pattern detection with its
// ACL sweep (patterns). The traced round calls those three public entry
// points one by one — what patterns_for does inside.
#include <array>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <thread>

#include "layers.h"
#include "patterns/detect.h"
#include "reference.h"

namespace perfbench {
namespace {

using ft::fault::TargetClass;

/// Plans per (region, target) per round.
constexpr std::size_t kSamples = 1;
/// Injections whose ACL sweep is recomputed by the reference check.
constexpr std::size_t kCheckedInjections = 6;

struct Injection {
  std::size_t app = 0;
  std::string region;
  ft::vm::FaultPlan plan;
};

class PatternsWorkload final : public Workload {
 public:
  explicit PatternsWorkload(const Options& opt) : opt_(opt) {}

  void setup(Tracer& tr) override {
    sessions_.clear();  // release the previous set-up first
    sessions_ = fig5_sessions(tr);
  }

  /// The round's injections: kSamples plans per (app, region, target)
  /// with a non-empty site population, drawn from the round seed.
  std::vector<Injection> plans(std::uint64_t index) const {
    std::vector<Injection> out;
    for (std::size_t a = 0; a < sessions_.size(); ++a) {
      auto& s = *sessions_[a];
      for (const auto& rd : s.app().analysis_regions) {
        const auto sites = s.region_sites(rd.id, 0);
        if (!sites->region_found) continue;
        for (const auto target : {TargetClass::Internal, TargetClass::Input}) {
          const auto salt = index * 1000003 + out.size();
          for (const auto& plan : ft::fault::sample_plans(
                   *sites, target, kSamples, mix_seed(opt_.seed, salt))) {
            out.push_back({a, rd.name, plan});
          }
        }
      }
    }
    return out;
  }

  RoundSample round(Tracer& tr, std::uint64_t index) override {
    // nproc threads take the round's injections in turn. A request is one
    // injection's patterns, as an interactive explorer asks for them.
    const auto injections = plans(index);
    std::vector<double> latency(injections.size(), -1.0);
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> failed{0};
    const auto round_span = tr.current();
    const auto worker = [&] {
      for (std::size_t i = next++; i < injections.size(); i = next++) {
        const auto& inj = injections[i];
        const double t0 = now_s();
        try {
          const auto report =
              tr.enabled() ? traced_patterns(tr, inj, round_span)
                           : sessions_[inj.app]->patterns_for(inj.plan);
          latency[i] = (now_s() - t0) * 1e3;
          record(inj, report);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "injection %zu failed: %s\n", i, e.what());
          ++failed;
        }
      }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < opt_.nproc; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();

    RoundSample out;
    out.operations = injections.size();
    out.failed = failed.load();
    for (const double ms : latency) {
      if (ms >= 0) out.request_ms.push_back(ms);
    }
    out.trials = out.request_ms.size();  // one faulty execution each
    out.injections = out.request_ms.size();
    return out;
  }

  /// patterns_for, one layer at a time, as children of span `parent`.
  ft::patterns::PatternReport traced_patterns(Tracer& tr, const Injection& inj,
                                              std::uint32_t parent) {
    const auto& s = *sessions_[inj.app];
    ft::acl::ColumnDiff diff;
    {
      const auto span = tr.child("acl.diff", parent);
      diff = s.column_diff_with(inj.plan);
    }
    const auto records = static_cast<double>(diff.usable_records());
    tr.count("acl.diff_records", records);
    tr.count("trace.bytes", static_cast<double>(diff.faulty.resident_bytes()));
    tr.count("trace.bytes_records", static_cast<double>(diff.faulty.size()));
    std::optional<ft::trace::LocationEvents> events;
    {
      const auto span = tr.child("trace.events", parent);
      events = ft::trace::LocationEvents::build(diff.records());
    }
    tr.count("trace.events_records", records);
    const auto span = tr.child("patterns.detect", parent);
    return ft::patterns::detect_patterns(diff, *events,
                                         detect_options(diff, inj.plan));
  }

  /// Detection seed of a region-input injection: the flipped word, from
  /// the RegionEnter record of the targeted instance.
  static ft::patterns::DetectOptions detect_options(
      const ft::acl::ColumnDiff& diff, const ft::vm::FaultPlan& plan) {
    ft::patterns::DetectOptions opts;
    if (plan.kind != ft::vm::FaultPlan::Kind::RegionInputMemoryBit) {
      return opts;
    }
    opts.seed_loc = ft::vm::mem_loc(plan.address);
    std::uint32_t seen = 0;
    for (std::size_t row = 0; row < diff.usable_records(); ++row) {
      if (diff.faulty.opcode_at(row) != ft::ir::Opcode::RegionEnter ||
          static_cast<std::uint32_t>(diff.faulty.aux_at(row)) !=
              plan.region_id) {
        continue;
      }
      if (seen++ == plan.region_instance) {
        opts.seed_index = row;
        break;
      }
    }
    return opts;
  }

  void record(const Injection& inj, const ft::patterns::PatternReport& rep) {
    using ft::patterns::PatternKind;
    std::lock_guard lock(found_mu_);
    auto& row = found_[sessions_[inj.app]->app().name + "/" + inj.region];
    for (const auto kind : ft::patterns::kAllPatterns) {
      if (rep.found(kind)) row[ft::patterns::pattern_index(kind)] = true;
    }
    if (sessions_[inj.app]->app().name == "is" &&
        rep.found(PatternKind::Shifting)) {
      shifting_in_is_ = true;
    }
  }

  void check(Result& out) override {
    using ft::patterns::PatternKind;
    using ft::patterns::pattern_index;
    // Table I shape (docs/reproduction.md): DCL and overwriting are
    // widespread across regions, shifting shows in IS.
    std::lock_guard lock(found_mu_);
    std::size_t dcl = 0, overwriting = 0;
    for (const auto& [region, found] : found_) {
      dcl += found[pattern_index(PatternKind::DeadCorruptedLocations)];
      overwriting += found[pattern_index(PatternKind::DataOverwriting)];
    }
    std::printf("Table I shape: DCL in %zu/%zu regions, overwriting in "
                "%zu/%zu, shifting in IS: %s\n",
                dcl, found_.size(), overwriting, found_.size(),
                shifting_in_is_ ? "yes" : "no");
    out.check(2 * dcl > found_.size(), "patterns: DCL is widespread");
    out.check(2 * overwriting > found_.size(),
              "patterns: overwriting is widespread");
    out.check(shifting_in_is_, "patterns: shifting appears in IS");

    // Reference ACL sweep on a seeded subset of round-0 injections that
    // stay in value-diff mode (no control-flow divergence, no cap).
    const auto candidates = plans(0);
    std::size_t checked = 0;
    for (std::size_t k = 0; k < candidates.size() && checked < kCheckedInjections;
         ++k) {
      const auto& inj = candidates[(mix_seed(opt_.seed, 77) + k * 7) %
                                   candidates.size()];
      const auto& s = *sessions_[inj.app];
      const auto diff = s.column_diff_with(inj.plan);
      if (diff.diverged() || diff.truncated) continue;
      const auto seed_loc =
          inj.plan.kind == ft::vm::FaultPlan::Kind::RegionInputMemoryBit
              ? ft::vm::mem_loc(inj.plan.address)
              : ft::vm::kNoLoc;
      const auto want = reference_acl(diff, seed_loc);
      const auto got = acl_counts(s.patterns_for(inj.plan).acl);
      out.check(got == want, "patterns: ACL sweep of " + s.app().name + "/" +
                                 inj.region + " matches the reference");
      std::printf("checked ACL %s/%s: %zu births, %zu overwrite / %zu dead / "
                  "%zu end kills, max %u\n",
                  s.app().name.c_str(), inj.region.c_str(), want.births,
                  want.kill_overwrite, want.kill_dead, want.kill_end,
                  want.max_count);
      ++checked;
    }
    out.check(checked > 0, "patterns: some injection stayed in value-diff mode");
  }

 private:
  const Options& opt_;
  std::vector<std::shared_ptr<ft::core::AnalysisSession>> sessions_;
  std::mutex found_mu_;
  std::map<std::string, std::array<bool, ft::patterns::kNumPatterns>>
      found_;                    // guarded by found_mu_
  bool shifting_in_is_ = false;  // guarded by found_mu_
};

}  // namespace

Result run_patterns(const Options& opt) {
  PatternsWorkload w(opt);
  return drive(w, opt);
}

}  // namespace perfbench
