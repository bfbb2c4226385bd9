// Columnar-substrate equivalence coverage.
//
// Three pins, each against the array-of-structs reference:
//  * ColumnTrace/TraceView vs the legacy observer-collected Trace —
//    record-by-record bit-identical for all ten workloads, clean, faulted
//    and trapping (the direct-emit hot loop must roll back the partial
//    record of an instruction that traps mid-flight);
//  * the CSR LocationEvents vs the map-of-vectors oracle (tests/oracles.h)
//    — query-by-query identical over every touched location;
//  * diff_against_golden vs the lockstep diff_run — identical faulty
//    streams, clean columns, differs bits, divergence and run results, and
//    downstream ACL series / pattern counts, on all ten workloads for
//    result-bit and region-input plans, a control-flow divergence, a
//    trapping and a hanging faulty run, and record caps before a
//    divergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>

#include "acl/diff.h"
#include "acl/table.h"
#include "apps/app.h"
#include "core/analysis.h"
#include "fault/campaign.h"
#include "oracles.h"
#include "patterns/detect.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "trace/events.h"
#include "trace/segment.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

bool same_record(const vm::DynInstr& a, const vm::DynInstr& b) {
  return a.index == b.index && a.func == b.func && a.block == b.block &&
         a.instr == b.instr && a.op == b.op && a.pred == b.pred &&
         a.type == b.type && a.nops == b.nops && a.line == b.line &&
         a.aux == b.aux && a.result_loc == b.result_loc &&
         a.result_bits == b.result_bits && a.op_loc == b.op_loc &&
         a.op_bits == b.op_bits && a.op_type == b.op_type &&
         a.mem_addr == b.mem_addr && a.mem_size == b.mem_size &&
         a.branch_taken == b.branch_taken;
}

std::string describe(const vm::DynInstr& d) {
  std::ostringstream os;
  os << "index=" << d.index << " op=" << ir::opcode_name(d.op)
     << " func=" << d.func << " block=" << d.block << " instr=" << d.instr
     << " result_bits=" << d.result_bits << " result_loc=" << d.result_loc
     << " op_loc=[" << d.op_loc[0] << "," << d.op_loc[1] << "," << d.op_loc[2]
     << "]";
  return os.str();
}

/// Run the app once through the observer path (legacy Trace) and once
/// through the direct-emit columnar path; require identical run results and
/// a bit-identical record stream.
void expect_traces_identical(const apps::AppSpec& app,
                             const std::shared_ptr<const vm::DecodedProgram>&
                                 prog,
                             const vm::VmOptions& base) {
  trace::TraceCollector collector;
  vm::VmOptions legacy_opts = base;
  legacy_opts.program = prog.get();
  legacy_opts.observer = &collector;
  const auto legacy_run = vm::Vm::run(app.module, legacy_opts);

  trace::ColumnTrace columnar(prog);
  vm::VmOptions col_opts = base;
  col_opts.program = prog.get();
  col_opts.column_sink = &columnar;
  const auto col_run = vm::Vm::run(app.module, col_opts);

  EXPECT_EQ(legacy_run.trap, col_run.trap);
  EXPECT_EQ(legacy_run.instructions, col_run.instructions);
  EXPECT_EQ(legacy_run.fault_fired, col_run.fault_fired);
  EXPECT_TRUE(legacy_run.outputs == col_run.outputs);

  const auto& records = collector.trace().records;
  ASSERT_EQ(records.size(), columnar.size());
  std::uint64_t mismatches = 0;
  std::size_t i = 0;
  for (const vm::DynInstr& r : columnar.view()) {
    if (!same_record(records[i], r) && mismatches++ < 5) {
      ADD_FAILURE() << "record mismatch at " << i
                    << ":\n  legacy  : " << describe(records[i])
                    << "\n  columnar: " << describe(r);
    }
    ++i;
  }
  EXPECT_EQ(mismatches, 0u);

  // The point of the substrate: records must be materially smaller.
  if (!columnar.empty()) {
    EXPECT_LT(columnar.bytes_per_record(),
              static_cast<double>(sizeof(vm::DynInstr)) / 3.0);
  }
}

class ColumnTraceEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ColumnTraceEquivalence, CleanFaultedAndTrappingRuns) {
  const auto app = apps::build_app(GetParam());
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));

  // Clean.
  expect_traces_identical(app, prog, app.base);

  // Mid-run register-commit flip (exercises the Load pre-flip escape when
  // the flip lands on a load).
  vm::VmOptions faulted = app.base;
  faulted.fault = vm::FaultPlan::result_bit(/*dyn_index=*/40000, /*bit=*/40);
  expect_traces_identical(app, prog, faulted);

  // High-bit flip that often traps (OutOfBounds / hang): the columnar
  // stream must end exactly where the observer stream ends.
  vm::VmOptions crashy = app.base;
  crashy.fault = vm::FaultPlan::result_bit(/*dyn_index=*/5000, /*bit=*/62);
  crashy.max_instructions = 400000;
  expect_traces_identical(app, prog, crashy);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ColumnTraceEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- TraceView slicing ---------------------------------------------------------

TEST(TraceView, SlicesMatchLegacySlices) {
  const auto app = apps::build_cg();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));

  trace::TraceCollector collector;
  vm::VmOptions lopts = app.base;
  lopts.program = prog.get();
  lopts.observer = &collector;
  (void)vm::Vm::run(app.module, lopts);

  trace::ColumnTrace columnar(prog);
  vm::VmOptions copts = app.base;
  copts.program = prog.get();
  copts.column_sink = &columnar;
  (void)vm::Vm::run(app.module, copts);

  const auto instances = trace::segment_regions(columnar);
  ASSERT_EQ(instances, trace::segment_regions(collector.trace().span()));
  ASSERT_FALSE(instances.empty());
  for (const auto& inst : instances) {
    const auto legacy =
        collector.trace().slice(inst.body_begin(), inst.body_end());
    const auto view = columnar.slice(inst.body_begin(), inst.body_end());
    ASSERT_EQ(legacy.size(), view.size());
    std::size_t i = 0;
    for (const vm::DynInstr& r : view) {
      ASSERT_TRUE(same_record(legacy[i], r)) << "slice record " << i;
      ++i;
    }
  }
}

// --- CSR LocationEvents vs the legacy map builder ------------------------------

TEST(LocationEventsCsr, QueryByQueryMatchesLegacyMap) {
  const auto app = apps::build_lulesh();
  const auto prog = std::make_shared<const vm::DecodedProgram>(
      vm::DecodedProgram::decode(app.module));
  trace::ColumnTrace columnar(prog);
  vm::VmOptions opts = app.base;
  opts.program = prog.get();
  opts.column_sink = &columnar;
  (void)vm::Vm::run(app.module, opts);

  // Build the CSR index from the columnar view and the reference from the
  // same (materialized) records.
  const auto csr = trace::LocationEvents::build(columnar.view());
  std::vector<vm::DynInstr> records;
  records.reserve(columnar.size());
  for (const vm::DynInstr& r : columnar.view()) records.push_back(r);
  const auto legacy = oracle::LegacyLocationEvents::build(records);

  ASSERT_EQ(csr.num_locations(), legacy.num_locations());

  // Every touched location, probed at its event indices and around them.
  std::size_t probes = 0;
  for (const auto& r : records) {
    vm::Location locs[4] = {r.result_loc, r.op_loc[0], r.op_loc[1],
                            r.op_loc[2]};
    for (const auto loc : locs) {
      if (loc == vm::kNoLoc) continue;
      for (const std::uint64_t at :
           {r.index == 0 ? 0 : r.index - 1, r.index, r.index + 1}) {
        ASSERT_EQ(csr.next_read_after(loc, at),
                  legacy.next_read_after(loc, at))
            << "loc " << vm::loc_to_string(loc) << " at " << at;
        ASSERT_EQ(csr.next_write_after(loc, at),
                  legacy.next_write_after(loc, at));
        ASSERT_EQ(csr.touched_after(loc, at), legacy.touched_after(loc, at));
        ASSERT_EQ(csr.read_before_overwrite_after(loc, at),
                  legacy.read_before_overwrite_after(loc, at));
        ASSERT_EQ(csr.last_write_before(loc, at),
                  legacy.last_write_before(loc, at));
        probes++;
      }
    }
    if (probes > 400000) break;  // plenty of coverage, bounded runtime
  }
  EXPECT_GT(probes, 1000u);

  // Untouched locations answer "nothing" in both.
  const vm::Location ghost = vm::reg_loc(0xABCDEF, 7);
  EXPECT_EQ(csr.next_read_after(ghost, 0), trace::LocationEvents::kNoIndex);
  EXPECT_FALSE(csr.touched_after(ghost, 0));
}

// --- golden-backed diff vs the lockstep diff ----------------------------------

void expect_same_run(const vm::RunResult& want, const vm::RunResult& got) {
  EXPECT_EQ(want.trap, got.trap);
  EXPECT_EQ(want.instructions, got.instructions);
  EXPECT_EQ(want.fault_fired, got.fault_fired);
  EXPECT_TRUE(want.outputs == got.outputs);
}

/// The golden-backed diff against the lockstep oracle: divergence,
/// truncation, both run results, every faulty record, the clean bits and
/// operands, the differs bits, and the ACL series and pattern counts built
/// over both.
void expect_diffs_equal(const acl::DiffResult& want, const acl::ColumnDiff& got) {
  EXPECT_EQ(want.divergence_index, got.divergence_index);
  EXPECT_EQ(want.truncated, got.truncated);
  expect_same_run(want.clean_result, got.clean_result);
  expect_same_run(want.faulty_result, got.faulty_result);
  ASSERT_EQ(want.usable_records(), got.usable_records());
  ASSERT_EQ(want.faulty.records.size(), got.faulty.size());
  EXPECT_TRUE(std::ranges::equal(want.clean_bits, got.clean_bits));
  EXPECT_TRUE(want.differs == got.differs);
  std::size_t i = 0;
  for (const vm::DynInstr& r : got.records()) {
    ASSERT_TRUE(same_record(want.faulty.records[i], r))
        << "record " << i << ": " << describe(r);
    ++i;
  }
  i = 0;
  for (const vm::DynInstr& c :
       got.golden->view().prefix(got.usable_records())) {
    ASSERT_EQ(c.result_bits, want.clean_bits[i]) << "clean record " << i;
    ASSERT_TRUE(c.op_bits == want.clean_op_bits[i]) << "clean record " << i;
    ++i;
  }
  EXPECT_EQ(i, want.usable_records());

  const auto want_events = trace::LocationEvents::build(
      std::span<const vm::DynInstr>(want.faulty.records.data(),
                                    want.usable_records()));
  const auto got_events = trace::LocationEvents::build(got.records());
  const auto want_acl = acl::build_acl(want, want_events);
  const auto got_acl = acl::build_acl(got, got_events);
  EXPECT_TRUE(want_acl.count == got_acl.count);
  EXPECT_EQ(want_acl.max_count, got_acl.max_count);
  EXPECT_EQ(want_acl.first_corruption_index, got_acl.first_corruption_index);
  ASSERT_EQ(want_acl.events.size(), got_acl.events.size());
  for (std::size_t e = 0; e < want_acl.events.size(); ++e) {
    const auto& a = want_acl.events[e];
    const auto& b = got_acl.events[e];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.loc, b.loc);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.faulty_bits, b.faulty_bits);
    EXPECT_EQ(a.clean_bits, b.clean_bits);
  }
  EXPECT_TRUE(patterns::detect_patterns(want, want_events).counts ==
              patterns::detect_patterns(got, got_events).counts);
}

/// Golden run and trace of `prog` under `base`.
struct Golden {
  std::shared_ptr<const trace::ColumnTrace> trace;
  vm::RunResult run;
};

Golden traced_golden(const std::shared_ptr<const vm::DecodedProgram>& prog,
                     vm::VmOptions base) {
  trace::ColumnTrace sink(prog);
  base.column_sink = &sink;
  Golden g;
  g.run = vm::Vm::run(*prog, base);
  g.trace = std::make_shared<const trace::ColumnTrace>(std::move(sink));
  return g;
}

/// One flip of bit `bit` of the result of the `nth` golden row (from row
/// `from` on) whose opcode is `op`, or nullopt when there is none.
std::optional<vm::FaultPlan> flip_nth(const trace::ColumnTrace& golden,
                                      ir::Opcode op, std::size_t from,
                                      std::size_t nth, std::uint32_t bit) {
  for (std::size_t row = from; row < golden.size(); ++row) {
    if (golden.opcode_at(row) == op && nth-- == 0) {
      return vm::FaultPlan::result_bit(row, bit);
    }
  }
  return std::nullopt;
}

/// The first flip of bit `bit` of an `op` result (one of the first `tries`
/// `op` rows from row `from` on, every `stride`-th) whose untraced faulty
/// run satisfies `pred`.
template <class Pred>
std::optional<vm::FaultPlan> find_flip(const vm::DecodedProgram& prog,
                                       const vm::VmOptions& base,
                                       const trace::ColumnTrace& golden,
                                       ir::Opcode op, std::size_t from,
                                       std::uint32_t bit, Pred pred,
                                       std::size_t tries = 64,
                                       std::size_t stride = 3) {
  for (std::size_t k = 0; k < tries; k += stride) {
    const auto plan = flip_nth(golden, op, from, k, bit);
    if (!plan) break;
    vm::VmOptions o = base;
    o.fault = *plan;
    if (pred(vm::Vm::run(prog, o))) return plan;
  }
  return std::nullopt;
}

class ColumnDiffEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(ColumnDiffEquivalence, GoldenBackedDiffMatchesLockstepOracle) {
  core::AnalysisSession session(apps::build_app(GetParam()));
  const auto& app = session.app();
  const auto& prog = session.program();
  const auto golden_trace = session.golden_trace();
  const auto golden_run = session.golden();
  const std::size_t rows = golden_trace->size();
  ASSERT_EQ(rows, golden_run->instructions);

  const Golden golden{golden_trace, *golden_run};
  bool saw_trap = false, saw_cap_before_div = false;
  // Diff `plan` both ways and compare; returns the lockstep oracle's diff.
  const auto check = [&](const std::string& name, const vm::FaultPlan& plan,
                         std::size_t max_records, const Golden& g,
                         const vm::VmOptions& base) {
    SCOPED_TRACE(GetParam() + ": " + name);
    acl::DiffOptions opts;
    opts.base = base;
    opts.fault = plan;
    opts.max_records = max_records;
    auto want = acl::diff_run(*prog, opts);
    // The tail runs natively when the base carries a JIT; either way the
    // diff equals the lockstep oracle.
    for (const bool native : {false, true}) {
      if (native && !base.jit) continue;
      acl::DiffOptions o = opts;
      if (!native) o.base.jit = nullptr;
      expect_diffs_equal(want, acl::diff_against_golden(g.trace, g.run, o));
      if (HasFatalFailure()) break;
    }
    saw_trap |= want.diverged() && !want.faulty_result.completed() &&
                want.divergence_index == want.faulty_result.instructions;
    saw_cap_before_div |= want.truncated && want.diverged() &&
                          want.divergence_index > want.usable_records();
    return want;
  };

  const auto sites = session.whole_program_sites();
  const auto result_bit_plans =
      fault::sample_plans(*sites, fault::TargetClass::Internal, 2, 11);
  ASSERT_FALSE(result_bit_plans.empty());
  for (const auto& plan : result_bit_plans) {
    check("result bit", plan, 0, golden, app.base);
    if (HasFatalFailure()) return;
  }
  check("cap before the end", result_bit_plans.front(), rows / 3, golden,
        app.base);
  for (const auto& rd : app.analysis_regions) {
    const auto inputs = fault::sample_plans(*session.region_sites(rd.id, 0),
                                            fault::TargetClass::Input, 1, 13);
    if (!inputs.empty()) {
      check("region input " + rd.name, inputs.front(), 0, golden, app.base);
      break;
    }
  }
  if (HasFatalFailure()) return;

  // A flipped comparison steers a branch the other way: the faulty stream
  // leaves the golden path with no trap. A record cap before that point
  // still reports the divergence.
  const auto diverging = find_flip(
      *prog, app.base, *golden_trace, ir::Opcode::ICmp, rows / 3, 0,
      [](const vm::RunResult& r) { return r.completed(); });
  ASSERT_TRUE(diverging);
  const auto diverged =
      check("control-flow divergence", *diverging, 0, golden, app.base);
  if (HasFatalFailure()) return;
  ASSERT_TRUE(diverged.diverged());
  check("divergence past the cap", *diverging, diverged.divergence_index / 2,
        golden, app.base);
  // A cap of exactly the usable records is reached: truncated.
  check("cap at the divergence", *diverging, diverged.divergence_index, golden,
        app.base);
  if (HasFatalFailure()) return;
  EXPECT_TRUE(saw_cap_before_div);

  // A high bit flipped into an address computation faults the access.
  const auto trapping = find_flip(
      *prog, app.base, *golden_trace, ir::Opcode::Gep, rows / 4, 45,
      [](const vm::RunResult& r) {
        return !r.completed() && r.trap != vm::TrapKind::Hang;
      });
  ASSERT_TRUE(trapping);
  check("trapping faulty run", *trapping, 0, golden, app.base);
  if (HasFatalFailure()) return;
  EXPECT_TRUE(saw_trap);

  // A hang under a small budget: the golden run just fits, a faulty run
  // whose flipped loop-exit or convergence test runs the loop on exhausts
  // it.
  vm::VmOptions tight = app.base;
  tight.max_instructions = rows;
  std::optional<vm::FaultPlan> hanging;
  for (const auto op : {ir::Opcode::ICmp, ir::Opcode::FCmp}) {
    if (!hanging) {
      hanging = find_flip(
          *prog, tight, *golden_trace, op, rows / 2, 0,
          [](const vm::RunResult& r) { return r.trap == vm::TrapKind::Hang; },
          512, 1);
    }
  }
  ASSERT_TRUE(hanging);
  const auto tight_golden = traced_golden(prog, tight);
  ASSERT_TRUE(tight_golden.run.completed());
  const auto hung =
      check("hang under a small budget", *hanging, 0, tight_golden, tight);
  if (HasFatalFailure()) return;
  EXPECT_EQ(hung.faulty_result.trap, vm::TrapKind::Hang);

  // The session's entry points run the same diff.
  acl::DiffOptions o;
  o.base = app.base;
  o.fault = result_bit_plans.front();
  const auto want = acl::diff_run(*prog, o);
  expect_diffs_equal(want, session.column_diff_with(o.fault));
  const auto want_events = trace::LocationEvents::build(
      std::span<const vm::DynInstr>(want.faulty.records.data(),
                                    want.usable_records()));
  EXPECT_TRUE(session.patterns_for(o.fault).counts ==
              patterns::detect_patterns(want, want_events).counts);
}

INSTANTIATE_TEST_SUITE_P(AllApps, ColumnDiffEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- session integration -------------------------------------------------------

TEST(SessionColumnar, GoldenArtifactsAgreeWithObserverPipeline) {
  core::AnalysisSession session(apps::build_cg());
  const auto& spec = session.app();
  const auto tr = session.golden_trace();
  EXPECT_EQ(tr->size(), session.golden()->instructions);

  // The session's columnar artifacts equal a from-scratch observer-path
  // enumeration (enumerate_sites runs the legacy engine + legacy trace).
  for (const auto& rd : spec.analysis_regions) {
    const auto columnar = session.region_sites(rd.id, 0);
    const auto reference =
        fault::enumerate_sites(spec.module, rd.id, 0, spec.base);
    ASSERT_EQ(columnar->region_found, reference.region_found) << rd.name;
    ASSERT_EQ(columnar->sites.internal.size(),
              reference.sites.internal.size());
    EXPECT_EQ(columnar->sites.internal_bits(),
              reference.sites.internal_bits());
    ASSERT_EQ(columnar->sites.input.size(), reference.sites.input.size());
    for (std::size_t i = 0; i < columnar->sites.input.size(); ++i) {
      EXPECT_EQ(columnar->sites.input[i].address,
                reference.sites.input[i].address);
    }
  }
}

TEST(SessionColumnar, PatternsForRegionInputFaultSeedsColumnarScan) {
  core::AnalysisSession session(apps::build_lulesh());
  const auto& app = session.app();
  const auto xd = app.module.global(*app.module.find_global("xd"));
  const auto plan = vm::FaultPlan::region_input_bit(app.main_region, 2,
                                                    xd.addr + 13 * 8, 8, 45);
  const auto report = session.patterns_for(plan);
  // The seeded ACL sweep found the corruption (first corruption at or
  // before the first differing write).
  EXPECT_NE(report.acl.first_corruption_index, acl::kNoIndex);
  EXPECT_FALSE(report.acl.events.empty());
}

}  // namespace
}  // namespace ft
