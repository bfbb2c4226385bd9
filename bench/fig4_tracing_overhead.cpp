// Figure 4: parallel tracing overhead — per-rank wall-clock of each MPI
// application with and without per-process trace files.
//
// Three tracing configurations are measured:
//  * selective (default comparison): trace the first main-loop iteration,
//    which is the unit every downstream analysis consumes (per-region-
//    instance trace splitting, §IV-A). This is the configuration whose
//    overhead lands in the paper's "modest" range; the paper itself points
//    to selective collection for anything larger ("one can selectively
//    collect traces for individual functions").
//  * columnar: every dynamic instruction of the run, direct-emitted into
//    an in-memory trace::ColumnTrace by the decoded hot loop — the
//    substrate every session-side analysis reads. No DynInstr, no
//    observer dispatch, ~32 bytes/record.
//  * exhaustive: every dynamic instruction written to a per-rank trace
//    file through the DynInstr observer path, for reference. An
//    interpreter retires instructions in ~30ns, so writing a ~180-byte
//    record per instruction costs several times the baseline — see
//    EXPERIMENTS.md for the discussion of this substrate difference.
#include <filesystem>

#include "bench_common.h"
#include "mpi/world.h"
#include "trace/column.h"
#include "trace/file.h"
#include "trace/file_sink.h"
#include "trace/segment.h"
#include "util/cli.h"
#include "vm/decode.h"

namespace {

using namespace ft;

// Selective tracing is now a stock pipeline: vm::RegionWindowGate wraps the
// file sink inside a vm::ObserverChain, and the chain's enabled() keeps the
// VM on the fast path outside the traced window.

enum class Mode { Plain, PlainDecoded, Columnar, Selective, Exhaustive };

}  // namespace

namespace {

int run_main(int argc, char** argv) {
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto nranks = cli.get_int("ranks", 4);
  bench::print_header("Fig. 4 - parallel tracing overhead", cfg);
  std::printf("ranks: %lld (paper: 64 on 8 nodes; --ranks=N to change)\n\n",
              static_cast<long long>(nranks));

  const auto tmp = std::filesystem::temp_directory_path() / "fliptracker_fig4";
  std::filesystem::create_directories(tmp);

  util::Table table({"app", "baseline (s)", "decoded (s)", "engine speedup",
                     "selective trace (s)", "selective overhead",
                     "columnar trace (s)", "columnar overhead",
                     "exhaustive trace (s)", "exhaustive overhead"});
  double total_sel = 0.0, total_col = 0.0, total_exh = 0.0,
         total_engine = 0.0;
  int apps_measured = 0;

  for (const std::string name : {"LULESH", "IS", "KMEANS", "MG", "CG"}) {
    auto app = apps::build_app(name);
    const auto& mod = app.module;
    // Decoded once per app, shared read-only by all ranks (the per-rank Vms
    // only read it — the same sharing AnalysisSession relies on).
    const auto prog = std::make_shared<const vm::DecodedProgram>(
        vm::DecodedProgram::decode(mod));

    auto run_world = [&](Mode mode) {
      mpi::World world(nranks);
      util::Stopwatch sw;
      world.launch([&](std::int64_t rank, vm::MpiEndpoint& ep) {
        vm::VmOptions opts = app.base;
        opts.mpi = &ep;
        if (mode == Mode::Plain) {
          (void)vm::Vm::run(mod, opts);
          return;
        }
        if (mode == Mode::PlainDecoded) {
          (void)vm::Vm::run(*prog, opts);
          return;
        }
        if (mode == Mode::Columnar) {
          // Exhaustive in-memory columnar trace, one per rank, emitted
          // directly by the decoded hot loop.
          trace::ColumnTrace sink(prog);
          opts.column_sink = &sink;
          (void)vm::Vm::run(*prog, opts);
          return;
        }
        const auto path = trace::rank_trace_path(
            (tmp / name).string(), static_cast<int>(rank));
        trace::StreamingFileTracer sink(path, 1 << 16);
        vm::RegionWindowGate gate(&sink, app.main_region);
        vm::ObserverChain chain;
        chain.then(&gate);
        opts.observer = mode == Mode::Selective
                            ? static_cast<vm::ExecObserver*>(&chain)
                            : &sink;
        (void)vm::Vm::run(mod, opts);
      });
      return sw.seconds();
    };

    double best_plain = 1e30, best_dec = 1e30, best_col = 1e30,
           best_sel = 1e30, best_exh = 1e30;
    const int reps = cfg.full ? 5 : 3;
    for (int rep = 0; rep < reps; ++rep) {
      best_plain = std::min(best_plain, run_world(Mode::Plain));
      best_dec = std::min(best_dec, run_world(Mode::PlainDecoded));
      best_col = std::min(best_col, run_world(Mode::Columnar));
      best_sel = std::min(best_sel, run_world(Mode::Selective));
      best_exh = std::min(best_exh, run_world(Mode::Exhaustive));
    }
    const double sel = best_sel / best_plain - 1.0;
    const double col = best_col / best_plain - 1.0;
    const double exh = best_exh / best_plain - 1.0;
    const double engine = best_plain / best_dec;
    total_sel += sel;
    total_col += col;
    total_exh += exh;
    total_engine += engine;
    apps_measured++;
    table.add_row({name, util::Table::num(best_plain, 4),
                   util::Table::num(best_dec, 4),
                   util::Table::num(engine, 2) + "x",
                   util::Table::num(best_sel, 4), util::Table::pct(sel, 1),
                   util::Table::num(best_col, 4), util::Table::pct(col, 1),
                   util::Table::num(best_exh, 4), util::Table::pct(exh, 1)});
  }
  table.print(std::cout);
  std::printf("\naverage overhead: selective %s, columnar %s, exhaustive %s "
              "(paper: 45%% at 64 ranks)\n",
              util::Table::pct(total_sel / apps_measured, 1).c_str(),
              util::Table::pct(total_col / apps_measured, 1).c_str(),
              util::Table::pct(total_exh / apps_measured, 1).c_str());
  std::printf("decoded engine (untraced baseline): %.2fx the legacy "
              "interpreter on average\n",
              total_engine / apps_measured);

  std::filesystem::remove_all(tmp);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
