// Trace-substrate A/B: columnar direct-emit traced execution (ColumnTrace
// sink fed by the decoded hot loop) against the DynInstr-observer baseline
// (TraceCollector behind the virtual ExecObserver hook), on repeated full
// traced runs of the CG golden workload.
//
// Reports instructions/sec for both substrates, the resident bytes/record
// of each, and verifies end-to-end analysis equivalence: identical ACL
// series/events and pattern counts for one injection analyzed on both
// substrates (the lockstep diff vs the golden-backed columnar diff, whose
// wall times it also prints). scripts/bench_smoke.sh gates on the columnar
// path staying >= 2x the observer baseline and >= 3x smaller per record;
// the binary exits nonzero if the equivalence check fails.
//
//   trace_substrate_ab [--reps=N] [--app=NAME]
#include <algorithm>

#include "acl/table.h"
#include "bench_common.h"
#include "patterns/detect.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "vm/decode.h"

namespace {

int run_main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto reps = static_cast<int>(cli.get_int("reps", 5));
  const auto name = apps::require_app_name(cli.get("app", "CG"), "app");
  bench::print_header("trace substrate A/B - columnar vs DynInstr observer",
                      cfg);

  const auto app = apps::build_app(name);
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));

  struct Measured {
    double seconds = 1e30;
    std::uint64_t instructions = 0;
    std::size_t records = 0;
    double bytes_per_record = 0.0;
  };

  const auto run_observer = [&](Measured& best) {
    trace::TraceCollector sink;
    vm::VmOptions opts = app.base;
    opts.program = prog.get();
    opts.observer = &sink;
    const util::Stopwatch sw;
    const auto r = vm::Vm::run(app.module, opts);
    const double s = sw.seconds();
    if (s < best.seconds) {
      best.seconds = s;
      best.instructions = r.instructions;
      best.records = sink.trace().size();
      best.bytes_per_record = static_cast<double>(sizeof(vm::DynInstr));
    }
  };
  // The last columnar run is kept as the golden trace the diff below reads.
  std::shared_ptr<const trace::ColumnTrace> golden;
  vm::RunResult golden_run;
  const auto run_columnar = [&](Measured& best) {
    trace::ColumnTrace sink(prog);
    vm::VmOptions opts = app.base;
    opts.program = prog.get();
    opts.column_sink = &sink;
    const util::Stopwatch sw;
    golden_run = vm::Vm::run(app.module, opts);
    const double s = sw.seconds();
    if (s < best.seconds) {
      best.seconds = s;
      best.instructions = golden_run.instructions;
      best.records = sink.size();
      best.bytes_per_record = sink.bytes_per_record();
    }
    golden = std::make_shared<const trace::ColumnTrace>(std::move(sink));
  };

  // Interleave rep by rep so a host load spike penalizes both substrates.
  Measured observer, columnar;
  for (int rep = 0; rep < reps; ++rep) {
    run_observer(observer);
    run_columnar(columnar);
  }

  const auto mips = [](const Measured& m) {
    return static_cast<double>(m.instructions) / m.seconds / 1e6;
  };
  std::printf("workload: %s, %zu records per traced run, %d reps (best-of)\n",
              name.c_str(), columnar.records, reps);
  std::printf("observer : %8.1f ms  %8.1f M instr/s  %6.1f bytes/record\n",
              observer.seconds * 1e3, mips(observer),
              observer.bytes_per_record);
  std::printf("columnar : %8.1f ms  %8.1f M instr/s  %6.1f bytes/record\n",
              columnar.seconds * 1e3, mips(columnar),
              columnar.bytes_per_record);
  std::printf("trace speedup: %.2fx\n", mips(columnar) / mips(observer));
  std::printf("bytes/record ratio: %.2fx smaller\n",
              observer.bytes_per_record / columnar.bytes_per_record);

  // --- end-to-end equivalence: same injection, both substrates -------------
  // The lockstep diff re-executes the clean run beside the faulty one; the
  // columnar diff reads the clean side from the golden trace above.
  acl::DiffOptions dopts;
  dopts.base = app.base;
  dopts.fault = vm::FaultPlan::result_bit(20000, 33);
  // The lockstep diff gets the golden record count as its reserve hint (what
  // AnalysisSession passes); the columnar diff sizes from the golden trace.
  dopts.reserve_records = columnar.records;
  const util::Stopwatch legacy_sw;
  const auto legacy_diff = acl::diff_run(*prog, dopts);
  const double legacy_diff_ms = legacy_sw.millis();
  const util::Stopwatch col_sw;
  const auto col_diff = acl::diff_against_golden(golden, golden_run, dopts);
  const double col_diff_ms = col_sw.millis();
  std::printf("diff wall (%zu records): lockstep %.1f ms, "
              "golden-backed columnar %.1f ms\n",
              legacy_diff.usable_records(), legacy_diff_ms, col_diff_ms);

  const auto legacy_events = trace::LocationEvents::build(
      std::span<const vm::DynInstr>(legacy_diff.faulty.records.data(),
                                    legacy_diff.usable_records()));
  const auto col_events = trace::LocationEvents::build(col_diff.records());
  const auto legacy_acl = acl::build_acl(legacy_diff, legacy_events);
  const auto col_acl = acl::build_acl(col_diff, col_events);
  const auto legacy_patterns =
      patterns::detect_patterns(legacy_diff, legacy_events);
  const auto col_patterns = patterns::detect_patterns(col_diff, col_events);

  bool events_equal = legacy_acl.events.size() == col_acl.events.size();
  for (std::size_t i = 0; events_equal && i < legacy_acl.events.size(); ++i) {
    const auto& a = legacy_acl.events[i];
    const auto& b = col_acl.events[i];
    events_equal = a.index == b.index && a.loc == b.loc && a.kind == b.kind &&
                   a.faulty_bits == b.faulty_bits &&
                   a.clean_bits == b.clean_bits;
  }
  const bool identical =
      events_equal && legacy_acl.count == col_acl.count &&
      legacy_patterns.counts == col_patterns.counts &&
      legacy_diff.divergence_index == col_diff.divergence_index &&
      legacy_diff.differs == col_diff.differs &&
      std::ranges::equal(legacy_diff.clean_bits, col_diff.clean_bits);
  std::printf("acl equivalence: %s (%zu events, %zu series points, "
              "pattern counts %s)\n",
              identical ? "identical" : "MISMATCH", col_acl.events.size(),
              col_acl.count.size(),
              legacy_patterns.counts == col_patterns.counts ? "equal"
                                                            : "DIFFER");
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
