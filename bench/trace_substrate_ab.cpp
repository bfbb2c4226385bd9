// Trace-substrate A/B: columnar direct-emit traced execution (ColumnTrace
// sink fed by the decoded hot loop) against the DynInstr-observer baseline
// (TraceCollector behind the virtual ExecObserver hook), on repeated full
// traced runs of the CG golden workload.
//
// Reports instructions/sec for both substrates and the resident
// bytes/record of each. scripts/bench_smoke.sh gates on the columnar path
// staying >= 2x the observer baseline and >= 3x smaller per record. Record
// equivalence of the two substrates is pinned by tests/column_trace_test.cpp.
//
//   trace_substrate_ab [--reps=N] [--app=NAME]
#include "bench_common.h"
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
  const auto run_columnar = [&](Measured& best) {
    trace::ColumnTrace sink(prog);
    vm::VmOptions opts = app.base;
    opts.program = prog.get();
    opts.column_sink = &sink;
    const util::Stopwatch sw;
    const auto r = vm::Vm::run(app.module, opts);
    const double s = sw.seconds();
    if (s < best.seconds) {
      best.seconds = s;
      best.instructions = r.instructions;
      best.records = sink.size();
      best.bytes_per_record = sink.bytes_per_record();
    }
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
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
