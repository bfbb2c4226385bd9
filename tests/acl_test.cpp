// ACL table tests, including the paper's Fig. 3 worked example, the
// differential run, and liveness/kill invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "acl/diff.h"
#include "acl/table.h"
#include "golden_diff.h"
#include "hl/builder.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "trace/events.h"
#include "util/bits.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft {
namespace {

using testing_support::golden_diff;

// --- Fig. 3: hand-built record stream, taint mode -----------------------------
//
// Instr 1 writes Loc_1 (the injected corruption), 2 and 4 touch an
// unrelated location, 3 reads Loc_1 and writes Loc_2, 5 overwrites Loc_1
// with a clean value, 6 ends the stream. Expected ACL counts after each
// instruction: 1 1 2 2 1 0 (the last row of the paper's figure).

/// A columnar record stream laid out by hand over the instructions of a
/// tiny decoded program: store(addr) writes memory cell `addr` from an
/// immediate, load(addr) reads cell `addr` into the Load's register, ret()
/// writes nothing. (Both address computations read one Gep register that
/// no row corrupts.)
class HandTrace {
 public:
  HandTrace() {
    for (std::uint32_t pc = 0; pc < prog_->code_size(); ++pc) {
      switch (prog_->code()[pc].op) {
        case ir::Opcode::Store: store_pc_ = pc; break;
        case ir::Opcode::Load: load_pc_ = pc; break;
        case ir::Opcode::Ret: ret_pc_ = pc; break;
        default: break;
      }
    }
  }
  HandTrace(const HandTrace&) = delete;
  HandTrace& operator=(const HandTrace&) = delete;

  void store(vm::Location addr) {
    trace_.begin_record(store_pc_, 0);
    trace_.push_op(util::f64_to_bits(1.0));
    trace_.push_op(vm::loc_address(addr));
    trace_.set_result(util::f64_to_bits(1.0));
  }
  void load(vm::Location addr) {
    trace_.begin_record(load_pc_, 0);
    trace_.push_op(vm::loc_address(addr));
    trace_.set_result(util::f64_to_bits(1.0));
  }
  void ret() { trace_.begin_record(ret_pc_, 0); }

  /// The register the Load writes.
  [[nodiscard]] vm::Location load_reg() const {
    return vm::reg_loc(0, prog_->code()[load_pc_].result);
  }
  [[nodiscard]] trace::TraceView view() const { return trace_.view(); }

 private:
  static ir::Module make() {
    hl::ProgramBuilder pb("hand");
    auto cell = pb.global_f64("cell", 1);
    const auto fid = pb.declare_function("main");
    {
      auto f = pb.define(fid);
      f.st(cell, 0, f.c_f64(1.0));
      (void)f.ld(cell, 0);
      f.ret();
    }
    return pb.finish();
  }

  ir::Module mod_ = make();
  std::shared_ptr<const vm::DecodedProgram> prog_ =
      std::make_shared<const vm::DecodedProgram>(
          vm::DecodedProgram::decode(mod_));
  trace::ColumnTrace trace_{prog_};
  std::uint32_t store_pc_ = 0, load_pc_ = 0, ret_pc_ = 0;
};

TEST(AclTable, Figure3WorkedExample) {
  constexpr vm::Location loc1 = vm::mem_loc(100), other = vm::mem_loc(200);
  HandTrace t;
  t.store(loc1);   // 1: fault lands in Loc_1
  t.store(other);  // 2: unrelated
  t.load(loc1);    // 3: Loc_1 -> Loc_2 (the Load's register)
  t.store(other);  // 4: unrelated
  t.store(loc1);   // 5: clean overwrite
  t.ret();         // 6: end
  const auto events = trace::LocationEvents::build(t.view());
  const auto acl = acl::build_acl_taint(t.view(), events, loc1, 0);

  ASSERT_EQ(acl.count.size(), 6u);
  EXPECT_EQ(acl.count[0], 1u);
  EXPECT_EQ(acl.count[1], 1u);
  EXPECT_EQ(acl.count[2], 2u);
  EXPECT_EQ(acl.count[3], 2u);
  EXPECT_EQ(acl.count[4], 1u);  // Loc_1 overwritten by a clean value
  EXPECT_EQ(acl.count[5], 0u);  // Loc_2 dead at end of trace
  EXPECT_EQ(acl.max_count, 2u);

  EXPECT_EQ(acl.kills(acl::AclEventKind::KillOverwrite), 1u);
  EXPECT_EQ(acl.kills(acl::AclEventKind::KillEndOfTrace), 1u);
  EXPECT_EQ(acl.first_corruption_index, 0u);
  ASSERT_FALSE(acl.events.empty());
  EXPECT_EQ(acl.events.back().loc, t.load_reg());
}

TEST(AclTable, TaintKillDeadAtLastUse) {
  constexpr vm::Location loc1 = vm::mem_loc(100), clean = vm::mem_loc(300);
  // Loc_1 corrupted at 0; its only use is at 1 and it is never written
  // again -> it must die *at* instruction 1 (the consuming instruction).
  HandTrace t;
  t.store(loc1);
  t.load(loc1);   // Loc_1 -> Loc_2 (the Load's register)
  t.load(clean);  // clean overwrite of Loc_2
  t.ret();
  const auto events = trace::LocationEvents::build(t.view());
  const auto acl = acl::build_acl_taint(t.view(), events, loc1, 0);
  ASSERT_EQ(acl.count.size(), 4u);
  EXPECT_EQ(acl.count[0], 1u);
  EXPECT_EQ(acl.count[1], 1u);  // Loc_1 died (dead), Loc_2 born
  EXPECT_EQ(acl.count[2], 0u);  // Loc_2 overwritten clean
  EXPECT_EQ(acl.kills(acl::AclEventKind::KillDead), 1u);
  EXPECT_EQ(acl.kills(acl::AclEventKind::KillOverwrite), 1u);
}

// --- differential engine ------------------------------------------------------

TEST(DiffRun, NoFaultMeansNoDifference) {
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 20, [&](hl::Value i) { s.set(s.get() + f.sitofp(i)); });
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();
  const auto diff = golden_diff(mod, vm::FaultPlan::none());
  EXPECT_FALSE(diff.diverged());
  EXPECT_EQ(diff.usable_records(), diff.golden->size());
  for (std::size_t i = 0; i < diff.usable_records(); ++i) {
    EXPECT_FALSE(diff.differs[i]);
  }
  EXPECT_EQ(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(DiffRun, FaultShowsUpExactlyAtInjection) {
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0, 2.0, 3.0, 4.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 4, [&](hl::Value i) { s.set(s.get() + f.ld(arr, i)); });
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();

  // Find a load to corrupt.
  trace::TraceCollector c;
  vm::VmOptions vopts;
  vopts.observer = &c;
  (void)vm::Vm::run(mod, vopts);
  std::uint64_t load_index = 0;
  for (const auto& r : c.trace().records) {
    if (r.op == ir::Opcode::Load &&
        r.result_bits == util::f64_to_bits(3.0)) {
      load_index = r.index;
    }
  }
  ASSERT_NE(load_index, 0u);

  const auto diff =
      golden_diff(mod, vm::FaultPlan::result_bit(load_index, 51));
  ASSERT_FALSE(diff.diverged());
  // Nothing differs before the injection; the injected record differs.
  for (std::uint64_t i = 0; i < load_index; ++i) {
    EXPECT_FALSE(diff.differs[i]);
  }
  EXPECT_TRUE(diff.differs[load_index]);
  EXPECT_NE(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(DiffRun, ControlFlowDivergenceIsDetected) {
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto x = f.var_i64("x", 4);
    // Branch on x: corrupting the comparison flips control flow.
    f.if_else(x.get().gt(2), [&] { f.emit(f.c_i64(111)); },
              [&] { f.emit(f.c_i64(222)); });
    f.ret();
  }
  auto mod = pb.finish();
  trace::TraceCollector c;
  vm::VmOptions vopts;
  vopts.observer = &c;
  (void)vm::Vm::run(mod, vopts);
  std::uint64_t cmp_index = 0;
  for (const auto& r : c.trace().records) {
    if (r.op == ir::Opcode::ICmp) cmp_index = r.index;
  }
  // Flip the i1.
  const auto diff = golden_diff(mod, vm::FaultPlan::result_bit(cmp_index, 0));
  EXPECT_TRUE(diff.diverged());
  EXPECT_GT(diff.divergence_index, cmp_index);
  EXPECT_NE(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(DiffRun, CrashingFaultStillReportsOutcome) {
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_i64("idx", {1});
  auto data = pb.global_f64("data", 4);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit(f.ld(data, f.ld(arr, 0)));
    f.ret();
  }
  auto mod = pb.finish();
  trace::TraceCollector c;
  vm::VmOptions vopts;
  vopts.observer = &c;
  (void)vm::Vm::run(mod, vopts);
  std::uint64_t idx_load = 0;
  for (const auto& r : c.trace().records) {
    if (r.op == ir::Opcode::Load && r.type == ir::Type::I64) {
      idx_load = r.index;
      break;
    }
  }
  // A huge index.
  const auto diff = golden_diff(mod, vm::FaultPlan::result_bit(idx_load, 40));
  EXPECT_EQ(diff.faulty_result.trap, vm::TrapKind::OutOfBounds);
  EXPECT_TRUE(diff.clean_result.completed());
}

// --- value-diff ACL over a real program ------------------------------------------

TEST(AclValueDiff, OverwriteKillsCorruption) {
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0, 0.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto v = f.ld(arr, 0);
    f.st(arr, 1, v);          // propagate
    f.st(arr, 1, f.c_f64(9.0));  // clean overwrite
    f.emit(f.ld(arr, 1));
    f.ret();
  }
  auto mod = pb.finish();

  trace::TraceCollector c;
  vm::VmOptions vopts;
  vopts.observer = &c;
  (void)vm::Vm::run(mod, vopts);
  std::uint64_t load_idx = 0;
  for (const auto& r : c.trace().records) {
    if (r.op == ir::Opcode::Load &&
        r.result_bits == util::f64_to_bits(1.0)) {
      load_idx = r.index;
      break;
    }
  }

  const auto diff = golden_diff(mod, vm::FaultPlan::result_bit(load_idx, 50));
  ASSERT_FALSE(diff.diverged());
  const auto events = trace::LocationEvents::build(diff.records());
  const auto acl_series = acl::build_acl(diff, events);

  // Corruption was born, propagated, and fully eliminated by the overwrite
  // (outputs match the clean run).
  EXPECT_GT(acl_series.births(), 0u);
  EXPECT_GT(acl_series.kills(acl::AclEventKind::KillOverwrite), 0u);
  EXPECT_EQ(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(AclValueDiff, CountNeverNegativeAndEndsAtZeroWhenMasked) {
  // Property over several injection points: counts are sane.
  hl::ProgramBuilder pb("t");
  auto arr = pb.global_init_f64("arr", {1.0, 2.0, 3.0, 4.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 4, [&](hl::Value i) { s.set(s.get() + f.ld(arr, i)); });
    f.st(arr, 0, f.c_f64(5.0));  // clean overwrite of arr[0]
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();
  for (const std::uint64_t idx : {2ull, 5ull, 8ull, 11ull}) {
    const auto diff = golden_diff(mod, vm::FaultPlan::result_bit(idx, 13));
    if (diff.diverged()) continue;
    const auto events = trace::LocationEvents::build(diff.records());
    const auto acl_series = acl::build_acl(diff, events);
    for (std::size_t i = 1; i < acl_series.count.size(); ++i) {
      // Counts move by bounded steps and stay non-negative (unsigned).
      EXPECT_LE(acl_series.count[i],
                acl_series.count[i - 1] + 2u);
    }
    if (!acl_series.count.empty()) {
      EXPECT_EQ(acl_series.count.back(), 0u);  // end-of-trace cleanup
    }
  }
}

TEST(AclErrorMagnitude, MatchesEquation2) {
  const auto clean = util::f64_to_bits(4.0);
  const auto faulty = util::f64_to_bits(5.0);
  EXPECT_DOUBLE_EQ(acl::error_magnitude(clean, faulty, ir::Type::F64), 0.25);
  EXPECT_DOUBLE_EQ(acl::error_magnitude(clean, clean, ir::Type::F64), 0.0);
  EXPECT_TRUE(std::isinf(
      acl::error_magnitude(util::f64_to_bits(0.0), faulty, ir::Type::F64)));
  // Integer magnitudes.
  EXPECT_DOUBLE_EQ(acl::error_magnitude(10, 15, ir::Type::I64), 0.5);
}

TEST(AclEvents, KindNamesAreStable) {
  EXPECT_EQ(acl::acl_event_kind_name(acl::AclEventKind::Birth), "birth");
  EXPECT_EQ(acl::acl_event_kind_name(acl::AclEventKind::KillDead),
            "kill-dead");
}

}  // namespace
}  // namespace ft
