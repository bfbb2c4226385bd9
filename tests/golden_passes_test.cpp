// Golden-pass equivalence: the columnar passes over the fault-free trace
// against the per-record reference algorithms of tests/oracles.h, bit for
// bit, on all ten applications and on the differential fuzzer's seeded
// programs:
//  * LocationEvents built from the columns == built from the materialized
//    DynInstr span == the map-of-vectors oracle, query for query;
//  * measure_rates (columnar and span forms) == the streaming DefTracker
//    scan, all six rates, the instruction and write totals;
//  * whole-program sites (session, decoded and module forms) == an
//    observer-run enumeration, including a program whose golden run traps.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/app.h"
#include "core/analysis.h"
#include "fault/sites.h"
#include "fuzz_program.h"
#include "hl/builder.h"
#include "oracles.h"
#include "patterns/rates.h"
#include "trace/column.h"
#include "trace/events.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

/// One traced fault-free run: the columnar trace and its records
/// materialized once.
struct Golden {
  std::shared_ptr<const vm::DecodedProgram> prog;
  trace::ColumnTrace columns;
  std::vector<vm::DynInstr> records;

  Golden(const ir::Module& m, const vm::VmOptions& base)
      : prog(std::make_shared<const vm::DecodedProgram>(
            vm::DecodedProgram::decode(m))),
        columns(prog) {
    vm::VmOptions opts = base;
    opts.observer = nullptr;
    opts.column_sink = &columns;
    opts.fault = vm::FaultPlan::none();
    (void)vm::Vm::run(*prog, opts);
    records.reserve(columns.size());
    for (const vm::DynInstr& r : columns.view()) records.push_back(r);
  }
};

/// Every query of the columnar index equals the span-built index and the
/// oracle at up to `max_probes` (location, index) probes spread over the
/// trace: each touched location at its event indices and one either side.
void expect_events_equal(const Golden& g, std::size_t max_probes) {
  const auto columnar = trace::LocationEvents::build(g.columns.view());
  const auto from_span = trace::LocationEvents::build(
      std::span<const vm::DynInstr>(g.records));
  const auto legacy = oracle::LegacyLocationEvents::build(g.records);
  ASSERT_EQ(columnar.num_locations(), from_span.num_locations());
  ASSERT_EQ(columnar.num_locations(), legacy.num_locations());
  ASSERT_EQ(columnar.num_events(), from_span.num_events());

  const auto ws = columnar.write_stats();
  const auto ws_span = from_span.write_stats();
  EXPECT_EQ(ws.writes, ws_span.writes);
  EXPECT_EQ(ws.overwrites, ws_span.overwrites);
  EXPECT_EQ(ws.dead_writes, ws_span.dead_writes);

  const std::size_t stride =
      std::max<std::size_t>(1, g.records.size() * 12 / (max_probes + 1));
  std::size_t probes = 0;
  for (std::size_t i = 0; i < g.records.size(); i += stride) {
    const auto& r = g.records[i];
    const vm::Location locs[4] = {r.result_loc, r.op_loc[0], r.op_loc[1],
                                  r.op_loc[2]};
    for (const auto loc : locs) {
      if (loc == vm::kNoLoc) continue;
      for (const std::uint64_t at :
           {r.index == 0 ? 0 : r.index - 1, r.index, r.index + 1}) {
        const auto want_read = legacy.next_read_after(loc, at);
        ASSERT_EQ(columnar.next_read_after(loc, at), want_read)
            << "loc " << vm::loc_to_string(loc) << " at " << at;
        ASSERT_EQ(from_span.next_read_after(loc, at), want_read);
        const auto want_write = legacy.next_write_after(loc, at);
        ASSERT_EQ(columnar.next_write_after(loc, at), want_write);
        ASSERT_EQ(from_span.next_write_after(loc, at), want_write);
        const bool want_touched = legacy.touched_after(loc, at);
        ASSERT_EQ(columnar.touched_after(loc, at), want_touched);
        ASSERT_EQ(from_span.touched_after(loc, at), want_touched);
        const auto want_live = legacy.read_before_overwrite_after(loc, at);
        ASSERT_EQ(columnar.read_before_overwrite_after(loc, at), want_live);
        ASSERT_EQ(from_span.read_before_overwrite_after(loc, at), want_live);
        const auto want_def = legacy.last_write_before(loc, at);
        ASSERT_EQ(columnar.last_write_before(loc, at), want_def);
        ASSERT_EQ(from_span.last_write_before(loc, at), want_def);
        ++probes;
      }
    }
  }
  EXPECT_GT(probes, 0u);

  // Locations the trace never touched answer "nothing".
  const vm::Location ghost = vm::reg_loc(0xABCDEF, 7);
  EXPECT_EQ(columnar.next_read_after(ghost, 0),
            trace::LocationEvents::kNoIndex);
  EXPECT_EQ(columnar.last_write_before(ghost, ~std::uint64_t{0} - 1),
            trace::LocationEvents::kNoIndex);
  EXPECT_FALSE(columnar.touched_after(ghost, 0));
  EXPECT_EQ(columnar.last_write_before(vm::kNoLoc, 10),
            trace::LocationEvents::kNoIndex);
}

void expect_same_rates(const patterns::PatternRates& got,
                       const patterns::PatternRates& want) {
  EXPECT_EQ(got.total_instructions, want.total_instructions);
  EXPECT_EQ(got.total_writes, want.total_writes);
  for (const auto kind : patterns::kAllPatterns) {
    // Bit-for-bit: the same counts over the same denominators.
    EXPECT_EQ(got.of(kind), want.of(kind)) << patterns::pattern_name(kind);
  }
}

/// Columnar and span rates against the DefTracker scan.
void expect_rates_equal(const Golden& g) {
  const auto columnar_events = trace::LocationEvents::build(g.columns.view());
  const std::span<const vm::DynInstr> records(g.records);
  const auto span_events = trace::LocationEvents::build(records);
  const auto want = oracle::def_tracker_rates(records, span_events);
  expect_same_rates(
      patterns::measure_rates(g.columns.view(), columnar_events), want);
  expect_same_rates(patterns::measure_rates(records, span_events), want);
}

void expect_same_sites(const fault::SiteEnumerationResult& got,
                       const fault::SiteEnumerationResult& want) {
  EXPECT_EQ(got.region_found, want.region_found);
  EXPECT_EQ(got.fault_free_instructions, want.fault_free_instructions);
  EXPECT_EQ(got.region_entry_index, want.region_entry_index);
  EXPECT_TRUE(got.sites.input.empty());
  ASSERT_EQ(got.sites.internal.size(), want.sites.internal.size());
  for (std::size_t i = 0; i < got.sites.internal.size(); ++i) {
    ASSERT_EQ(got.sites.internal[i].dyn_index,
              want.sites.internal[i].dyn_index)
        << "site " << i;
    ASSERT_EQ(got.sites.internal[i].width_bits,
              want.sites.internal[i].width_bits)
        << "site " << i;
  }
}

// --- hand-made streams ----------------------------------------------------------

/// A record reading `reads` and writing `write` (kNoLoc: none).
vm::DynInstr record(std::uint64_t index, std::vector<vm::Location> reads,
                    vm::Location write) {
  vm::DynInstr d;
  d.index = index;
  d.op = ir::Opcode::Add;
  d.nops = static_cast<std::uint8_t>(reads.size());
  for (std::size_t i = 0; i < reads.size(); ++i) d.op_loc[i] = reads[i];
  d.result_loc = write;
  return d;
}

TEST(GoldenPassesWriteStats, ReadWinsATieWithTheNextWrite) {
  // SSA programs never read and write one location in a single record, so
  // the tie rule needs a hand-made stream. L: written at 0, read and
  // rewritten at 1 (the read keeps write 0 live), read at 2 (write 1 live),
  // written at 3 and never read again (dead). M: written twice with no read
  // between (the first is dead) and read at the end.
  const vm::Location L = vm::mem_loc(0x1000);
  const vm::Location M = vm::mem_loc(0x2000);
  const std::vector<vm::DynInstr> records = {
      record(0, {}, L), record(1, {L}, L), record(2, {L}, vm::kNoLoc),
      record(3, {}, L), record(4, {}, M), record(5, {}, M),
      record(6, {M}, vm::kNoLoc)};
  const auto events = trace::LocationEvents::build(
      std::span<const vm::DynInstr>(records));
  const auto ws = events.write_stats();
  EXPECT_EQ(ws.writes, 5u);
  EXPECT_EQ(ws.overwrites, 3u);
  EXPECT_EQ(ws.dead_writes, 2u);  // L@3 and M@4

  // The same count from one liveness query per write, on the oracle.
  const auto legacy = oracle::LegacyLocationEvents::build(records);
  std::uint64_t dead = 0;
  for (const auto& r : records) {
    if (r.result_loc != vm::kNoLoc &&
        legacy.read_before_overwrite_after(r.result_loc, r.index) ==
            oracle::LegacyLocationEvents::kNoIndex) {
      ++dead;
    }
  }
  EXPECT_EQ(ws.dead_writes, dead);
  EXPECT_EQ(events.last_write_before(L, 1), 0u);
  EXPECT_EQ(events.last_write_before(L, 2), 1u);
  EXPECT_EQ(events.last_write_before(M, 4), trace::LocationEvents::kNoIndex);
}

// --- the ten applications ------------------------------------------------------

class GoldenPasses : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenPasses, ColumnarPassesMatchOracles) {
  core::AnalysisSession session(apps::build_app(GetParam()));
  const auto& app = session.app();
  const Golden g(app.module, app.base);
  ASSERT_EQ(g.columns.size(), session.golden_trace()->size());

  expect_events_equal(g, /*max_probes=*/60000);
  expect_rates_equal(g);

  // The session's pattern rates are the columnar ones.
  expect_same_rates(*session.pattern_rates(),
                    oracle::def_tracker_rates(
                        g.records, trace::LocationEvents::build(
                                       std::span<const vm::DynInstr>(
                                           g.records))));

  const auto want =
      oracle::observer_whole_program_sites(*session.program(), app.base);
  ASSERT_TRUE(want.region_found);
  expect_same_sites(*session.whole_program_sites(), want);
  expect_same_sites(fault::enumerate_whole_program_sites(g.columns), want);
}

INSTANTIATE_TEST_SUITE_P(AllApps, GoldenPasses,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- the differential fuzzer's programs ----------------------------------------

TEST(GoldenPassesFuzz, SeededProgramsMatchOracles) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ir::Module m = fuzz::ProgramGen(seed).generate();
    const Golden g(m, {});
    expect_events_equal(g, /*max_probes=*/4000);
    expect_rates_equal(g);

    const auto want = oracle::observer_whole_program_sites(*g.prog, {});
    ASSERT_TRUE(want.region_found);
    expect_same_sites(fault::enumerate_whole_program_sites(*g.prog, {}), want);
    expect_same_sites(fault::enumerate_whole_program_sites(m, {}),
                      oracle::observer_whole_program_sites(m, {}));
    expect_same_sites(fault::enumerate_whole_program_sites(g.columns), want);
    if (HasFatalFailure()) return;
  }
}

// --- a golden run that traps ---------------------------------------------------

/// Stores and accumulates for a while, then divides by zero.
ir::Module trapping_program() {
  hl::ProgramBuilder pb("trap");
  auto arr = pb.global_f64("arr", 16);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto acc = f.var_f64("acc", 0.5);
    f.for_("i", 0, 16, [&](hl::Value i) {
      f.st(arr, i, acc.get() * 2.0);
      acc.set(acc.get() + f.ld(arr, i));
    });
    auto x = f.var_i64("x", 1);
    auto y = f.var_i64("y", 0);
    f.emit(x.get() / y.get());
    f.emit(acc.get());
    f.ret();
  }
  return pb.finish();
}

TEST(GoldenPassesTrap, TrappedGoldenRunYieldsEmptyPopulation) {
  const ir::Module m = trapping_program();
  const auto prog = vm::DecodedProgram::decode(m);
  const auto want = oracle::observer_whole_program_sites(prog, {});
  ASSERT_FALSE(want.region_found);
  ASSERT_GT(want.fault_free_instructions, 16u);

  expect_same_sites(fault::enumerate_whole_program_sites(prog, {}), want);
  expect_same_sites(fault::enumerate_whole_program_sites(m, {}), want);

  apps::AppSpec spec;
  spec.name = "trap";
  spec.module = trapping_program();
  core::AnalysisSession session(std::move(spec));
  std::shared_ptr<const fault::SiteEnumerationResult> sites;
  ASSERT_NO_THROW(sites = session.whole_program_sites());
  expect_same_sites(*sites, want);
  EXPECT_TRUE(sites->sites.internal.empty());
  // The trace itself stays unavailable: its accessor still reports the trap.
  // The trap is cached: the traced run executes once, not once per call.
  const std::uint64_t traced = session.traced_instructions_executed();
  EXPECT_EQ(traced, want.fault_free_instructions);
  EXPECT_THROW((void)session.golden_trace(), std::runtime_error);
  EXPECT_THROW((void)session.pattern_rates(), std::runtime_error);
  EXPECT_THROW((void)session.region_sites(0, 0), std::runtime_error);
  EXPECT_EQ(session.traced_instructions_executed(), traced);
  // Invalidation forgets the trap along with the trace.
  session.invalidate_trace();
  EXPECT_THROW((void)session.golden_trace(), std::runtime_error);
  EXPECT_EQ(session.traced_instructions_executed(), 2 * traced);
}

// The golden-backed diff reads the clean side from the golden trace, so on
// a program whose traced fault-free run traps, column_diff_with and
// patterns_for throw the error golden_trace() throws — without running the
// traced program again.
TEST(GoldenPassesTrap, DiffsThrowTheGoldenTraceError) {
  apps::AppSpec spec;
  spec.name = "trap";
  spec.module = trapping_program();
  core::AnalysisSession session(std::move(spec));
  const auto message = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "<no exception>";
  };
  const std::string want = message([&] { (void)session.golden_trace(); });
  ASSERT_NE(want, "<no exception>");
  const std::uint64_t traced = session.traced_instructions_executed();
  const auto plan = vm::FaultPlan::result_bit(5, 3);
  EXPECT_EQ(message([&] { (void)session.column_diff_with(plan); }), want);
  EXPECT_EQ(message([&] { (void)session.patterns_for(plan); }), want);
  EXPECT_EQ(message([&] { (void)session.patterns_for(plan, 8); }), want);
  EXPECT_EQ(session.traced_instructions_executed(), traced);
}

}  // namespace
}  // namespace ft
