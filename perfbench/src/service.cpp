// Workload `service`: closed-loop clients in front of one
// core::CampaignService with a fresh ArtifactStore. Each client submits its
// next request only after the reply to its previous one. A round is a
// fixed mix of ten requests, seeded in campaign seeds, order and which
// requests repeat:
//
//   3 per-region success-rate campaigns (Fig. 5 regions, both targets),
//   2 compositional whole-application campaigns,
//   2 cross-rank campaigns on the *-RANKED applications (2 ranks),
//   1 pattern-rate request on a fresh session (golden trace from the store),
//   2 repeats of earlier success-rate or compositional requests of the round.
//
// The repeats (one request in five) are served from the store — outcome
// counts or section summaries — so the store is written and read in the
// same run. This is the only workload that exercises core admission,
// single-flight dedup, store writes beside reads, compose and mpi.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <thread>
#include <unistd.h>

#include "core/service.h"
#include "layers.h"
#include "store/artifact_store.h"

namespace perfbench {
namespace {

using ft::fault::TargetClass;

enum class Kind { RegionRates, Compositional, Rank, PatternRates };

struct RequestSpec {
  Kind kind = Kind::RegionRates;
  std::string app;
  std::uint64_t seed = 0;
  bool repeat = false;
};

constexpr std::size_t kRegionTrials = 8;   // per (region, target) unit
constexpr std::size_t kComposeTrials = 24;
constexpr std::size_t kRankTrials = 6;
constexpr std::int64_t kRanks = 2;
constexpr std::size_t kClients = 3;
/// Round-0 requests replayed serially by the check, besides the repeats.
constexpr std::size_t kReplayed = 3;

const std::vector<std::string> kRankedApps = {"CG-RANKED", "MG-RANKED",
                                              "LULESH-RANKED"};

ft::fault::CampaignConfig campaign_config(std::size_t trials,
                                          std::uint64_t seed) {
  ft::fault::CampaignConfig cfg;
  cfg.trials = trials;
  cfg.seed = seed;
  return cfg;
}

/// The request a spec stands for. Pattern-rate requests carry an explicit
/// application spec, so they get a session of their own rather than the
/// service's shared one.
ft::core::AnalysisRequest make_request(const RequestSpec& r,
                                       const ft::apps::AppSpec* spec) {
  ft::core::AnalysisRequest req;
  switch (r.kind) {
    case Kind::RegionRates:
      req.app(r.app)
          .analysis_regions()
          .target(TargetClass::Internal)
          .target(TargetClass::Input)
          .success_rates(campaign_config(kRegionTrials, r.seed));
      break;
    case Kind::Compositional:
      req.app(r.app).compositional(campaign_config(kComposeTrials, r.seed));
      break;
    case Kind::Rank: {
      ft::fault::RankCampaignConfig cfg;
      cfg.nranks = kRanks;
      cfg.trials = kRankTrials;
      cfg.seed = r.seed;
      req.app(r.app).rank_campaign(cfg);
      break;
    }
    case Kind::PatternRates:
      req.app(*spec).pattern_rates();
      break;
  }
  return req;
}

struct Reply {
  RequestSpec spec;
  ft::core::AnalysisReport report;
};

class ServiceWorkload final : public Workload {
 public:
  explicit ServiceWorkload(const Options& opt)
      : opt_(opt),
        store_dir_(opt.out_dir + "/store-" + std::to_string(::getpid())) {}

  ~ServiceWorkload() override {
    service_.reset();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  bool repeatable_rounds() const override { return false; }

  /// Workers: each rank trial blocks its worker while kRanks rank threads
  /// run, so workers x kRanks runnable threads stay within nproc.
  std::size_t workers() const {
    return std::max<std::size_t>(1, opt_.nproc / kRanks);
  }

  void setup(Tracer& tr) override {
    service_.reset();
    sched_.reset();
    rate_specs_.clear();
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
    sched_ = std::make_unique<ft::util::Scheduler>(workers());
    ft::core::ServiceOptions so;
    so.scheduler = sched_.get();
    {
      const auto span = tr.scope("store.open");
      so.store = std::make_shared<ft::store::ArtifactStore>(store_dir_);
    }
    service_ = std::make_unique<ft::core::CampaignService>(so);
    // Shared sessions, golden artifacts warm (and published to the store).
    for (const auto& name : kFig5Apps) {
      std::shared_ptr<ft::core::AnalysisSession> s;
      {
        const auto span = tr.scope("core.session");
        s = service_->session_for(name);
      }
      warm_golden(tr, *s, Warm{.region_sites = true, .whole_sites = true});
      const auto& spec = rate_specs_[name] = build_app(tr, name);
      probe_decode_compile(tr, spec);
    }
    for (const auto& name : kRankedApps) {
      std::shared_ptr<ft::core::AnalysisSession> s;
      {
        const auto span = tr.scope("core.session");
        s = service_->session_for(name);
      }
      const auto span = tr.scope("fault.rank_sites");
      (void)s->rank_enumeration(kRanks);
    }
  }

  /// The round's requests in submission order.
  std::vector<RequestSpec> mix(std::uint64_t index) const {
    const auto n = kFig5Apps.size();
    std::vector<RequestSpec> out;
    const auto seed = [&](std::size_t k) {
      return mix_seed(opt_.seed, index * 64 + k);
    };
    for (std::size_t j = 0; j < 3; ++j) {
      out.push_back({Kind::RegionRates, kFig5Apps[(index * 3 + j) % n],
                     seed(out.size())});
    }
    for (std::size_t j = 0; j < 2; ++j) {
      out.push_back({Kind::Compositional, kFig5Apps[(index * 2 + j + 1) % n],
                     seed(out.size())});
    }
    for (std::size_t j = 0; j < 2; ++j) {
      out.push_back({Kind::Rank,
                     kRankedApps[(index * 2 + j) % kRankedApps.size()],
                     seed(out.size())});
    }
    out.push_back({Kind::PatternRates, kFig5Apps[index % n], 0});
    // Seeded order of the originals, then each repeat at a seeded place
    // after its original.
    const auto r = mix_seed(opt_.seed, index * 64 + 63);
    for (std::size_t i = out.size(); i > 1; --i) {
      std::swap(out[i - 1], out[mix_seed(r, i) % i]);
    }
    std::vector<std::size_t> repeatable;
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (out[i].kind == Kind::RegionRates ||
          out[i].kind == Kind::Compositional) {
        repeatable.push_back(i);
      }
    }
    for (std::size_t k = 0; k < 2; ++k) {
      const auto pick = mix_seed(r, 100 + k) % repeatable.size();
      const auto original = repeatable[pick];
      repeatable.erase(repeatable.begin() + static_cast<std::ptrdiff_t>(pick));
      auto copy = out[original];
      copy.repeat = true;
      const auto at =
          original + 1 + mix_seed(r, 200 + k) % (out.size() - original);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), copy);
      for (auto& i : repeatable) {
        if (i >= at) ++i;
      }
    }
    return out;
  }

  const ft::apps::AppSpec* rate_spec(const std::string& name) const {
    const auto it = rate_specs_.find(name);
    return it == rate_specs_.end() ? nullptr : &it->second;
  }

  RoundSample round(Tracer& tr, std::uint64_t index) override {
    const auto requests = mix(index);
    std::vector<std::optional<Reply>> replies(requests.size());
    std::vector<double> latency(requests.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> failed{0};
    const auto store0 = service_->store()->counters();
    const auto stats0 = service_->stats();
    const auto steals0 = sched_->steals();
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    const auto round_span = tr.current();

    const auto client = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests.size()) return;
        const auto& spec = requests[i];
        const auto id = index * 64 + i;
        const auto span = tr.child("core.request", round_span, id);
        const double start = now_s();
        std::atomic<bool> first_progress{false};
        ft::core::ServiceSubscriber progress;
        if (tr.enabled()) {
          progress = [&, start](const ft::core::ServiceSnapshot&) {
            if (!first_progress.exchange(true)) {
              tr.count("core.queue_wait_ms", (now_s() - start) * 1e3);
              tr.count("core.queue_waits", 1);
            }
          };
        }
        try {
          auto report =
              service_
                  ->submit(make_request(spec, spec.kind == Kind::PatternRates
                                                  ? rate_spec(spec.app)
                                                  : nullptr),
                           progress)
                  .get();
          latency[i] = (now_s() - start) * 1e3;
          if (tr.enabled()) layer_counters(tr, report, latency[i]);
          replies[i] = Reply{spec, std::move(report)};
        } catch (const std::exception& e) {
          latency[i] = (now_s() - start) * 1e3;
          std::fprintf(stderr, "request %zu failed: %s\n", i, e.what());
          failed.fetch_add(1);
        }
      }
    };
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
    for (auto& t : clients) t.join();

    const double wall = now_s() - t0;
    RoundSample out;
    out.operations = requests.size();
    out.failed = failed.load();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!replies[i]) continue;
      out.request_ms.push_back(latency[i]);
      out.trials += replies[i]->report.trials_executed;
      out.injections += replies[i]->report.total_trials;
    }
    if (tr.enabled()) {
      const auto store1 = service_->store()->counters();
      tr.count("store.hits", static_cast<double>(store1.hits - store0.hits));
      tr.count("store.misses",
               static_cast<double>(store1.misses - store0.misses));
      tr.count("store.bytes_read",
               static_cast<double>(store1.bytes_read - store0.bytes_read));
      tr.count("store.bytes_written", static_cast<double>(
                                          store1.bytes_written -
                                          store0.bytes_written));
      tr.count("core.flights_joined",
               static_cast<double>(service_->stats().flights_joined -
                                   stats0.flights_joined));
      tr.count("util.steals", static_cast<double>(sched_->steals() - steals0));
      tr.count("util.busy_cpu_s", process_cpu_s() - cpu0);
      tr.count("util.capacity_s",
               wall * static_cast<double>(workers() * kRanks));
    }
    if (checked_.empty()) {
      for (auto& r : replies) {
        if (r) checked_.push_back(std::move(*r));
      }
    }
    return out;
  }

  /// Per-layer counters read off one reply.
  static void layer_counters(Tracer& tr,
                             const ft::core::AnalysisReport& report,
                             double latency_ms) {
    if (report.trials_executed > 0) {
      tr.count("core.golden_pipeline_ms", report.wall_ms - report.campaign_ms);
      tr.count("core.golden_pipeline_calls", 1);
    }
    for (const auto& app : report.apps) {
      if (app.compositional) {
        tr.count("compose.summarize_ms",
                 app.compositional->summarize_seconds * 1e3);
        tr.count("compose.close_ms", app.compositional->close_seconds * 1e3);
        tr.count("compose.trials_avoided",
                 static_cast<double>(app.compositional->trials_avoided));
        tr.count("compose.requests", 1);
      }
      if (app.rank_campaign) {
        const auto trials = static_cast<double>(app.rank_campaign->trials);
        tr.count("fault.rank_trials", trials);
        tr.count("fault.rank_request_ms", latency_ms);
        // mpi::World::launch starts one OS thread per rank per trial.
        tr.count("mpi.threads_started",
                 trials * static_cast<double>(app.rank_campaign->nranks));
      }
    }
  }

  void check(Result& out) override {
    out.check(!checked_.empty(), "service: a round was checked");
    // Store-served requests executed nothing, and of a request and its
    // repeat one was served from the store (whichever claimed the keys
    // first computed them).
    std::size_t served = 0;
    for (const auto& r : checked_) {
      if (r.spec.kind != Kind::RegionRates) continue;
      if (r.report.campaigns_from_store > 0) {
        ++served;
        out.check(r.report.trials_executed == 0,
                  "service: store-served " + r.spec.app +
                      " request executed no trials");
      }
      if (!r.spec.repeat) continue;
      const auto pair_served = std::count_if(
          checked_.begin(), checked_.end(), [&](const Reply& o) {
            return o.spec.kind == r.spec.kind && o.spec.app == r.spec.app &&
                   o.spec.seed == r.spec.seed &&
                   o.report.campaigns_from_store > 0;
          });
      out.check(pair_served >= 1, "service: repeated " + r.spec.app +
                                      " request was served from the store");
    }
    for (const auto& r : checked_) {
      for (const auto& e : r.report.entries) {
        out.check(outcome_sum(e.campaign) == e.campaign.trials,
                  "service: outcome classes of " + e.app + "/" +
                      e.region_name + " sum to its trials");
      }
    }
    // Replay serially, storeless, on one worker: every repeated request
    // (so what the store served is compared too) and a seeded subset of
    // the others.
    ft::util::Scheduler one(1);
    std::vector<std::size_t> replay, others;
    for (std::size_t i = 0; i < checked_.size(); ++i) {
      (checked_[i].spec.repeat ? replay : others).push_back(i);
    }
    for (std::size_t k = 0; k < kReplayed && !others.empty(); ++k) {
      const auto pick = mix_seed(opt_.seed, 900 + k) % others.size();
      replay.push_back(others[pick]);
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    for (const auto i : replay) {
      const auto& r = checked_[i];
      const auto spec = r.spec.kind == Kind::PatternRates
                            ? rate_spec(r.spec.app)
                            : nullptr;
      const auto ref =
          ft::core::run_analysis(make_request(r.spec, spec).pool(&one));
      out.check(same_reports(ref, r.report),
                "service: " + r.spec.app +
                    " request equals its serial storeless replay");
      std::printf("replayed %s request on %s%s\n", kind_name(r.spec.kind),
                  r.spec.app.c_str(), r.spec.repeat ? " (repeat)" : "");
    }
    std::printf("store-served region requests: %zu\n", served);
  }

  static const char* kind_name(Kind k) {
    switch (k) {
      case Kind::RegionRates: return "region-rates";
      case Kind::Compositional: return "compositional";
      case Kind::Rank: return "rank";
      case Kind::PatternRates: return "pattern-rates";
    }
    return "?";
  }

  static bool same_reports(const ft::core::AnalysisReport& a,
                           const ft::core::AnalysisReport& b) {
    if (a.entries.size() != b.entries.size() || a.apps.size() != b.apps.size())
      return false;
    for (std::size_t i = 0; i < a.entries.size(); ++i) {
      if (!same_counts(a.entries[i].campaign, b.entries[i].campaign)) {
        return false;
      }
    }
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
      const auto& x = a.apps[i];
      const auto& y = b.apps[i];
      if (x.compositional.has_value() != y.compositional.has_value() ||
          x.rank_campaign.has_value() != y.rank_campaign.has_value() ||
          x.rates.has_value() != y.rates.has_value()) {
        return false;
      }
      if (x.compositional &&
          !same_counts(x.compositional->counts, y.compositional->counts)) {
        return false;
      }
      if (x.rank_campaign) {
        const auto& p = *x.rank_campaign;
        const auto& q = *y.rank_campaign;
        if (p.trials != q.trials || p.masked_locally != q.masked_locally ||
            p.absorbed_by_collective != q.absorbed_by_collective ||
            p.propagated != q.propagated ||
            p.corrupted_output != q.corrupted_output ||
            p.trapped != q.trapped) {
          return false;
        }
      }
      if (x.rates && x.rates->rate != y.rates->rate) return false;
    }
    return true;
  }

 private:
  const Options& opt_;
  std::string store_dir_;
  std::unique_ptr<ft::util::Scheduler> sched_;
  std::unique_ptr<ft::core::CampaignService> service_;
  std::map<std::string, ft::apps::AppSpec> rate_specs_;
  std::vector<Reply> checked_;
};

}  // namespace

Result run_service(const Options& opt) {
  ServiceWorkload w(opt);
  return drive(w, opt);
}

}  // namespace perfbench
