#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

// --- tracer ------------------------------------------------------------------

namespace {

/// Open spans of the calling thread, innermost last, for parent linkage.
thread_local std::vector<std::uint32_t> t_open;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t Tracer::allocate_id() {
  std::lock_guard lock(mu_);
  return next_id_++;
}

Tracer::Scope::Scope(Tracer* t, std::string name, std::uint64_t request,
                     std::uint32_t parent, bool explicit_parent)
    : tracer_(t) {
  if (!tracer_) return;
  span_.name = std::move(name);
  span_.id = tracer_->allocate_id();
  span_.parent =
      explicit_parent ? parent : (t_open.empty() ? 0 : t_open.back());
  span_.request = request;
  span_.tid = thread_index();
  t_open.push_back(span_.id);
  span_.start_ns = now_ns() - tracer_->origin_ns_;
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  span_.end_ns = now_ns() - tracer_->origin_ns_;
  t_open.pop_back();
  tracer_->finish(span_);
}

std::uint32_t Tracer::current() const {
  return t_open.empty() ? 0 : t_open.back();
}

void Tracer::finish(const Span& s) {
  std::lock_guard lock(mu_);
  spans_.push_back(s);
}

void Tracer::count(const std::string& name, double v) {
  if (!enabled_) return;
  std::lock_guard lock(mu_);
  counters_[name] += v;
}

double Tracer::counter(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

double Tracer::total_ms(const std::string& name) const {
  std::lock_guard lock(mu_);
  double ns = 0;
  for (const auto& s : spans_) {
    if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns / 1e6;
}

std::size_t Tracer::calls(const std::string& name) const {
  std::lock_guard lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

std::map<std::string, double> Tracer::layer_self_ms(
    const std::string& root) const {
  const auto all = spans();
  std::unordered_map<std::uint32_t, const Span*> by_id;
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const auto& s : all) {
    by_id[s.id] = &s;
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  // A span counts when it is a `root` span or descends from one.
  const auto under_root = [&](const Span& s) {
    for (const Span* p = &s; p;) {
      if (p->name == root) return true;
      const auto it = by_id.find(p->parent);
      p = it == by_id.end() ? nullptr : it->second;
    }
    return false;
  };
  std::map<std::string, double> self;
  for (const auto& s : all) {
    if (!under_root(s)) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const auto b = std::max(c->start_ns, s.start_ns);
        const auto e = std::min(c->end_ns, s.end_ns);
        if (e > b) iv.emplace_back(b, e);
      }
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    const auto layer = s.name.substr(0, s.name.find('.'));
    self[layer] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%u,"
                  "\"parent\":%u,\"request\":%llu}}",
                  s.name.c_str(), s.name.substr(0, s.name.find('.')).c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  s.id, s.parent, static_cast<unsigned long long>(s.request));
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

// --- measurement ---------------------------------------------------------------

std::vector<RoundSample> measure(
    double seconds, std::size_t min_rounds, std::uint64_t first_index,
    const std::function<RoundSample(std::uint64_t)>& round) {
  std::vector<RoundSample> out;
  const double start = now_s();
  for (std::uint64_t i = first_index;; ++i) {
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    auto s = round(i);
    s.wall_s = now_s() - t0;
    s.cpu_s = process_cpu_s() - cpu0;
    out.push_back(std::move(s));
    if (out.size() >= min_rounds && now_s() - start >= seconds) break;
  }
  return out;
}

double measure_setup(std::size_t min_times, double min_seconds,
                     const std::function<void()>& setup) {
  std::vector<double> t;
  const double start = now_s();
  while (t.size() < min_times || now_s() - start < min_seconds) {
    const double t0 = now_s();
    setup();
    t.push_back(now_s() - t0);
  }
  return median(std::move(t));
}

// --- results -------------------------------------------------------------------

void count_operations(Result& out, const std::vector<RoundSample>& rounds) {
  for (const auto& r : rounds) {
    out.attempted += r.operations;
    out.failed += r.failed;
  }
}

void add_end_to_end(Result& out, const std::vector<RoundSample>& rounds,
                    double setup_s) {
  std::vector<double> wall, cpu, trials, injections, requests, latency;
  for (const auto& r : rounds) {
    wall.push_back(r.wall_s);
    cpu.push_back(r.cpu_s);
    trials.push_back(static_cast<double>(r.trials) / r.wall_s);
    injections.push_back(static_cast<double>(r.injections) / r.wall_s);
    requests.push_back(static_cast<double>(r.request_ms.size()) / r.wall_s);
    latency.insert(latency.end(), r.request_ms.begin(), r.request_ms.end());
  }
  out.add("wall_s", median(wall), "s");
  out.add("setup_s", setup_s, "s");
  out.add("cpu_s", median(cpu), "s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.add("trials_per_s", median(trials), "trials/s");
  out.add("injections_per_s", median(injections), "injections/s");
  out.add("requests_per_s", median(requests), "req/s");
  out.add("request_p50_ms", quantile(latency, 0.5), "ms");
  out.add("request_p90_ms", quantile(latency, 0.9), "ms");
  std::printf("rounds: %zu, requests timed: %zu\n", rounds.size(),
              latency.size());
}

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
  double (*value)(const LayerInputs&);
};

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
double per_call_ms(const LayerInputs& in, const char* span) {
  return ratio(in.tracer->total_ms(span),
               static_cast<double>(in.tracer->calls(span)));
}
double per_round(const LayerInputs& in, const char* counter) {
  return ratio(in.tracer->counter(counter),
               static_cast<double>(in.traced_rounds));
}
double c(const LayerInputs& in, const char* counter) {
  return in.tracer->counter(counter);
}

// The per-layer metrics, named <module>.<metric>. The README maps each one
// to the end-to-end metric it should move.
const LayerMetric kLayerMetrics[] = {
    {"apps.build_ms", "ms",
     [](const LayerInputs& in) { return per_call_ms(in, "apps.build"); }},
    {"vm.decode_ms", "ms",
     [](const LayerInputs& in) { return per_call_ms(in, "vm.decode"); }},
    {"jit.compile_ms", "ms",
     [](const LayerInputs& in) { return per_call_ms(in, "jit.compile"); }},
    {"vm.golden_run_ms", "ms",
     [](const LayerInputs& in) { return per_call_ms(in, "vm.golden_run"); }},
    {"trace.traced_ns_per_record", "ns/record",
     [](const LayerInputs& in) {
       return ratio(in.tracer->total_ms("trace.golden_trace") * 1e6,
                    c(in, "trace.golden_records"));
     }},
    {"trace.events_ns_per_record", "ns/record",
     [](const LayerInputs& in) {
       return ratio(in.tracer->total_ms("trace.events") * 1e6,
                    c(in, "trace.events_records"));
     }},
    {"trace.bytes_per_record", "B/record",
     [](const LayerInputs& in) {
       return ratio(c(in, "trace.bytes"), c(in, "trace.bytes_records"));
     }},
    {"patterns.rates_ns_per_record", "ns/record",
     [](const LayerInputs& in) {
       return ratio(in.tracer->total_ms("patterns.rates") * 1e6,
                    c(in, "patterns.rates_records"));
     }},
    {"fault.sites_ms", "ms",
     [](const LayerInputs& in) { return per_call_ms(in, "fault.sites"); }},
    {"core.golden_pipeline_ms", "ms",
     [](const LayerInputs& in) {
       return ratio(c(in, "core.golden_pipeline_ms"),
                    c(in, "core.golden_pipeline_calls"));
     }},
    {"acl.diff_ns_per_record", "ns/record",
     [](const LayerInputs& in) {
       return ratio(in.tracer->total_ms("acl.diff") * 1e6,
                    c(in, "acl.diff_records"));
     }},
    {"acl.diff_records", "records",
     [](const LayerInputs& in) {
       return ratio(c(in, "acl.diff_records"),
                    static_cast<double>(in.tracer->calls("acl.diff")));
     }},
    {"patterns.detect_ns_per_record", "ns/record",
     [](const LayerInputs& in) {
       return ratio(in.tracer->total_ms("patterns.detect") * 1e6,
                    c(in, "acl.diff_records"));
     }},
    {"fault.prepare_ms", "ms",
     [](const LayerInputs& in) {
       return ratio(in.tracer->total_ms("fault.prepare"),
                    static_cast<double>(in.traced_rounds));
     }},
    {"fault.trial_instr_per_s", "instr/s",
     [](const LayerInputs& in) {
       return ratio(c(in, "fault.trial_instructions"),
                    in.tracer->total_ms("fault.trial_chunk") / 1e3);
     }},
    {"fault.trial_instructions", "count",
     [](const LayerInputs& in) {
       return per_round(in, "fault.trial_instructions");
     }},
    {"fault.instructions_saved", "count",
     [](const LayerInputs& in) {
       return per_round(in, "fault.instructions_saved");
     }},
    {"fault.early_exit_ratio", "ratio",
     [](const LayerInputs& in) {
       return ratio(c(in, "fault.early_exits"), c(in, "fault.trials"));
     }},
    {"fault.rank_trials_per_s", "trials/s",
     [](const LayerInputs& in) {
       return ratio(c(in, "fault.rank_trials"),
                    c(in, "fault.rank_request_ms") / 1e3);
     }},
    {"mpi.threads_started", "count",
     [](const LayerInputs& in) {
       return per_round(in, "mpi.threads_started");
     }},
    {"compose.summarize_ms", "ms",
     [](const LayerInputs& in) {
       return ratio(c(in, "compose.summarize_ms"), c(in, "compose.requests"));
     }},
    {"compose.close_ms", "ms",
     [](const LayerInputs& in) {
       return ratio(c(in, "compose.close_ms"), c(in, "compose.requests"));
     }},
    {"compose.trials_avoided", "count",
     [](const LayerInputs& in) {
       return per_round(in, "compose.trials_avoided");
     }},
    {"store.hit_ratio", "ratio",
     [](const LayerInputs& in) {
       return ratio(c(in, "store.hits"),
                    c(in, "store.hits") + c(in, "store.misses"));
     }},
    {"store.bytes_read", "B",
     [](const LayerInputs& in) { return per_round(in, "store.bytes_read"); }},
    {"store.bytes_written", "B",
     [](const LayerInputs& in) {
       return per_round(in, "store.bytes_written");
     }},
    {"core.queue_wait_ms", "ms",
     [](const LayerInputs& in) {
       return ratio(c(in, "core.queue_wait_ms"), c(in, "core.queue_waits"));
     }},
    {"core.flights_joined", "count",
     [](const LayerInputs& in) {
       return per_round(in, "core.flights_joined");
     }},
    {"util.steals", "count",
     [](const LayerInputs& in) { return per_round(in, "util.steals"); }},
    {"util.busy_ratio", "ratio",
     [](const LayerInputs& in) {
       return ratio(c(in, "util.busy_cpu_s"), c(in, "util.capacity_s"));
     }},
    {"model.fit_ms", "ms",
     [](const LayerInputs& in) { return per_call_ms(in, "model.fit"); }},
};

// Layers whose self time per traced round is reported.
const char* const kSelfLayers[] = {"vm",    "jit",     "trace", "acl",
                                   "patterns", "fault", "core",  "util",
                                   "model"};

}  // namespace

void add_per_layer(Result& out, const LayerInputs& in) {
  for (const auto& m : kLayerMetrics) out.add(m.name, m.value(in), m.unit);

  const auto self = in.tracer->layer_self_ms("bench.round");
  const double rounds = static_cast<double>(in.traced_rounds);
  std::printf("per-layer self time per traced round, summed over threads "
              "(%zu rounds):\n",
              in.traced_rounds);
  double total = 0;
  for (const auto& [layer, ms] : self) {
    std::printf("  %-10s %10.3f ms\n", layer.c_str(), ms / rounds);
    total += ms;
  }
  std::printf("  %-10s %10.3f ms\n", "(all)", total / rounds);
  for (const char* layer : kSelfLayers) {
    const auto it = self.find(layer);
    out.add(std::string(layer) + ".self_ms",
            it == self.end() ? 0.0 : it->second / rounds, "ms");
  }
  // Round time no layer span covers: the benchmark's own loop plus any
  // work between the spans.
  const auto bench = self.find("bench");
  out.add("bench.unattributed_ms",
          bench == self.end() ? 0.0 : bench->second / rounds, "ms");
  out.add("bench.tracing_overhead_ms",
          (in.traced_wall_s - in.untraced_wall_s) * 1e3, "ms");
  std::printf("tracing overhead: traced round %.4f s vs untraced %.4f s\n",
              in.traced_wall_s, in.untraced_wall_s);
}

Result drive(Workload& w, const Options& opt) {
  constexpr std::size_t kMinRounds = 3;
  Result out;
  Tracer off(false);
  const auto untraced_round = [&](std::uint64_t i) { return w.round(off, i); };
  if (!opt.trace) {
    const double setup_s = measure_setup(5, 1.0, [&] { w.setup(off); });
    // Warm-up: whole rounds for a second, counted but not timed, so that
    // allocator growth and first-touch page faults stay out of the figures.
    const auto warm = measure(1.0, 1, 0, untraced_round);
    const auto rounds =
        measure(opt.seconds, kMinRounds, warm.size(), untraced_round);
    count_operations(out, warm);
    count_operations(out, rounds);
    add_end_to_end(out, rounds, setup_s);
    w.check(out);
    return out;
  }
  Tracer tr(true);
  {
    const auto span = tr.scope("bench.setup");
    w.setup(tr);
  }
  const auto warm = measure(1.0, 1, 0, untraced_round);
  const auto untraced =
      measure(opt.seconds / 2, kMinRounds, warm.size(), untraced_round);
  // The traced rounds repeat the untraced rounds' inputs where a repeat
  // costs the same, so the wall-time difference is the tracing overhead.
  const auto first_traced = w.repeatable_rounds()
                                ? warm.size()
                                : warm.size() + untraced.size();
  const auto traced = measure(
      opt.seconds / 2, kMinRounds, first_traced, [&](std::uint64_t i) {
        const auto span = tr.scope("bench.round");
        return w.round(tr, i);
      });
  count_operations(out, warm);
  count_operations(out, untraced);
  count_operations(out, traced);
  const auto wall = [](const std::vector<RoundSample>& rs) {
    std::vector<double> v;
    for (const auto& r : rs) v.push_back(r.wall_s);
    return median(std::move(v));
  };
  w.finish_trace(tr);
  add_per_layer(out, LayerInputs{&tr, traced.size(), wall(untraced),
                                 wall(traced)});
  w.check(out);
  const auto path = opt.out_dir + "/trace-" + opt.workload + ".json";
  if (tr.write_chrome_trace(path)) {
    std::printf("spans written to %s\n", path.c_str());
  }
  return out;
}

}  // namespace perfbench
