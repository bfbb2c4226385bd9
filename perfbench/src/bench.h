// Shared machinery of the repository benchmark: options, the measurement
// loop, statistics, the span tracer of the traced run, and the result
// record every workload fills.
//
// The benchmark drives the library only through its public API. Spans are
// recorded here, around the calls into each layer; nothing inside src/ is
// instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the store and the trace file.
  std::string out_dir = ".bench_build/perfbench/out";
  /// Hardware threads; every workload sizes its executor from this.
  unsigned nproc = 1;
};

/// splitmix64 step: derives independent per-round/per-request seeds from
/// the benchmark seed, so the same --seed always yields the same inputs.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

// --- clocks and process counters ---------------------------------------------

[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// User + system CPU seconds of this process (all threads).
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of this process in MB.
[[nodiscard]] double peak_rss_mb();

// --- statistics ----------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Quantile with linear interpolation between order statistics.
[[nodiscard]] double quantile(std::vector<double> v, double q);

// --- tracer --------------------------------------------------------------------

/// In-memory span recorder for the traced run. A span has a name
/// ("<layer>.<what>"), start, end, parent and request id; counters are
/// added at the same boundaries. Disabled tracers record nothing and cost
/// one branch per scope.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::uint64_t request = 0;
    std::uint32_t tid = 0;
  };

  /// RAII scope: the span ends when the scope does.
  class Scope {
   public:
    Scope(Tracer* t, std::string name, std::uint64_t request,
          std::uint32_t parent, bool explicit_parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint32_t id() const noexcept { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span whose parent is the innermost open span of this thread.
  [[nodiscard]] Scope scope(std::string name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, std::move(name), request, 0,
                 false);
  }
  /// Open a span with an explicit parent (work handed to another thread).
  [[nodiscard]] Scope child(std::string name, std::uint32_t parent,
                            std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, std::move(name), request, parent,
                 true);
  }
  /// Innermost open span of the calling thread (0 when none).
  [[nodiscard]] std::uint32_t current() const;

  /// Add to a named counter.
  void count(const std::string& name, double v);
  [[nodiscard]] double counter(const std::string& name) const;

  [[nodiscard]] std::vector<Span> spans() const;
  /// Total duration (ms) and number of spans with this exact name.
  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] std::size_t calls(const std::string& name) const;

  /// Per-layer self time (ms) over the subtrees of spans named `root`:
  /// each span's duration minus the part of it its children cover.
  [[nodiscard]] std::map<std::string, double> layer_self_ms(
      const std::string& root) const;

  /// Write every span as Chrome trace-event JSON.
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Scope;
  void finish(const Span& s);

  bool enabled_;
  std::int64_t origin_ns_ = now_ns();
  mutable std::mutex mu_;
  std::vector<Span> spans_;                  // guarded by mu_
  std::map<std::string, double> counters_;  // guarded by mu_
  std::uint32_t next_id_ = 1;               // guarded by mu_

  [[nodiscard]] static std::int64_t now_ns();
  std::uint32_t allocate_id();
};

// --- measurement ---------------------------------------------------------------

/// What one round of a workload did.
struct RoundSample {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t trials = 0;      // faulty executions run
  std::uint64_t injections = 0;  // injections classified or analysed
  std::uint64_t operations = 0;  // library calls attempted
  std::uint64_t failed = 0;      // of those, calls that threw
  /// Latency of each request completed in the round. A request is what a
  /// user waits for: one service request, one patterns_for call, or the
  /// whole round (the Fig. 5 request, the Table IV pipeline).
  std::vector<double> request_ms;
};

/// Run `round(i)` for whole rounds until `seconds` have passed (at least
/// `min_rounds`), numbering rounds from `first_index`.
std::vector<RoundSample> measure(
    double seconds, std::size_t min_rounds, std::uint64_t first_index,
    const std::function<RoundSample(std::uint64_t)>& round);

/// Times `setup()` at least `min_times` times and for at least
/// `min_seconds` in all, and returns the median seconds. A short set-up is
/// repeated over a second so that host bursts shorter than that average
/// out.
double measure_setup(std::size_t min_times, double min_seconds,
                     const std::function<void()>& setup);

// --- results -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed correctness checks, printed before the result line.
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The end-to-end metrics shared by every workload, from untraced rounds.
void add_end_to_end(Result& out, const std::vector<RoundSample>& rounds,
                    double setup_s);
void count_operations(Result& out, const std::vector<RoundSample>& rounds);

/// Everything the traced run derives its per-layer metrics from.
struct LayerInputs {
  const Tracer* tracer = nullptr;
  std::size_t traced_rounds = 0;
  double untraced_wall_s = 0;
  double traced_wall_s = 0;
};
/// Every per-layer metric, computed from the spans and counters the
/// workload recorded (a layer the workload does not exercise reads 0), and
/// a printed breakdown of per-layer self time.
void add_per_layer(Result& out, const LayerInputs& in);

/// One workload: a set-up that can be repeated, a round of fixed
/// composition, and the correctness checks run after the rounds.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the rounds reuse, replacing any earlier set-up.
  virtual void setup(Tracer& tr) = 0;
  /// One round; `index` seeds its inputs. Spans go to `tr`.
  virtual RoundSample round(Tracer& tr, std::uint64_t index) = 0;
  /// Correctness checks against independent computations.
  virtual void check(Result& out) = 0;
  /// Traced runs: add counters gathered during the untraced rounds (the
  /// reports of run_analysis calls) before per-layer metrics are derived.
  virtual void finish_trace(Tracer& tr) { (void)tr; }
  /// False when running a round's inputs again costs less the second time
  /// (a store serves them); traced rounds then take fresh inputs.
  [[nodiscard]] virtual bool repeatable_rounds() const { return true; }
};

/// Untraced: set up at least five times and for at least a second
/// (setup_s is the median), warm up for a second, run rounds for
/// opt.seconds, check, report the end-to-end metrics. Traced: set up once with spans, warm up, run untraced rounds
/// for half the time and traced rounds on the same inputs for the other
/// half, check, report the per-layer metrics and write the spans to
/// <out_dir>/trace-<workload>.json.
Result drive(Workload& w, const Options& opt);

/// Workload entry points.
Result run_campaign(const Options& opt);
Result run_patterns(const Options& opt);
Result run_predict(const Options& opt);
Result run_service(const Options& opt);

}  // namespace perfbench
