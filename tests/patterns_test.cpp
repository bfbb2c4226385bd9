// Pattern detectors (§VI): one crafted micro-program per pattern designed
// to exhibit exactly that resilience mechanism, plus the fault-free rate
// counters of Table IV.
#include <gtest/gtest.h>

#include "golden_diff.h"
#include "hl/builder.h"
#include "patterns/detect.h"
#include "patterns/rates.h"
#include "trace/collector.h"
#include "trace/events.h"
#include "util/bits.h"
#include "vm/interp.h"

namespace ft {
namespace {

using patterns::PatternKind;

/// Find the dynamic index of the nth record matching pred in a fault-free
/// traced run.
template <typename Pred>
std::uint64_t find_index(const ir::Module& m, const Pred& pred,
                         unsigned nth = 0) {
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(m, opts);
  unsigned seen = 0;
  for (const auto& r : c.trace().records) {
    if (pred(r)) {
      if (seen == nth) return r.index;
      seen++;
    }
  }
  ADD_FAILURE() << "no matching record";
  return 0;
}

patterns::PatternReport detect(const ir::Module& m, const vm::FaultPlan& plan,
                               patterns::DetectOptions opts = {}) {
  const auto diff = testing_support::golden_diff(m, plan);
  const auto events = trace::LocationEvents::build(diff.records());
  return patterns::detect_patterns(diff, events, opts);
}

// --- Pattern 6: Data Overwriting --------------------------------------------

TEST(Detect, DataOverwriting) {
  hl::ProgramBuilder pb("t");
  auto a = pb.global_init_f64("a", {1.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto v = f.ld(a, 0);    // corrupt this load's result
    f.st(a, 0, v);          // corrupted value lands in memory
    f.st(a, 0, f.c_f64(5.0));  // clean value overwrites it
    f.emit(f.ld(a, 0));
    f.ret();
  }
  auto mod = pb.finish();
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 48));
  EXPECT_TRUE(rep.found(PatternKind::DataOverwriting));
  EXPECT_FALSE(rep.found(PatternKind::Shifting));
  EXPECT_FALSE(rep.found(PatternKind::Truncation));
}

// --- Pattern 1: Dead Corrupted Locations --------------------------------------

TEST(Detect, DeadCorruptedLocations) {
  hl::ProgramBuilder pb("t");
  auto tmp = pb.global_f64("tmp", 4);
  auto out = pb.global_f64("out", 1);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    // Aggregate temporaries into one output (Fig. 8 shape), then never
    // touch the temporaries again.
    f.for_("i", 0, 4, [&](hl::Value i) {
      f.st(tmp, i, f.sitofp(i) * 1.5);
    });
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 4, [&](hl::Value i) { s.set(s.get() + f.ld(tmp, i)); });
    f.st(out, 0, s.get());
    f.emit(f.ld(out, 0));
    f.ret();
  }
  auto mod = pb.finish();
  // Corrupt the store into tmp[2].
  const auto idx = find_index(
      mod,
      [](const vm::DynInstr& r) {
        return r.op == ir::Opcode::Store && r.type == ir::Type::Void &&
               r.op_type[0] == ir::Type::F64;
      },
      2);
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 30));
  // tmp[2] is read once into the aggregation and then dies.
  EXPECT_TRUE(rep.found(PatternKind::DeadCorruptedLocations));
}

// --- Pattern 3: Conditional Statements ------------------------------------------

TEST(Detect, ConditionalStatementMasksFault) {
  hl::ProgramBuilder pb("t");
  auto a = pb.global_init_f64("a", {10.0, 1.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto x = f.ld(a, 0);  // corrupt low mantissa: still > a[1]
    auto cond = x.gt(f.ld(a, 1));
    f.if_else(cond, [&] { f.emit(f.c_i64(1)); }, [&] { f.emit(f.c_i64(0)); });
    f.ret();
  }
  auto mod = pb.finish();
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 2));
  EXPECT_TRUE(rep.found(PatternKind::ConditionalStatement));
  // And the program output is identical to the clean run.
}

TEST(Detect, FlippedComparisonIsNotMasking) {
  hl::ProgramBuilder pb("t");
  auto a = pb.global_init_f64("a", {10.0, 1.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto cond = f.ld(a, 0).gt(f.ld(a, 1));
    f.emit(f.select(cond, f.c_i64(1), f.c_i64(0)));
    f.ret();
  }
  auto mod = pb.finish();
  // Corrupt the exponent so 10.0 becomes tiny and the comparison flips.
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 62));
  EXPECT_FALSE(rep.found(PatternKind::ConditionalStatement));
}

// --- Pattern 4: Shifting -----------------------------------------------------------

TEST(Detect, ShiftMasksLowBits) {
  hl::ProgramBuilder pb("t");
  auto keys = pb.global_init_i64("keys", {0x3F5});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto k = f.ld(keys, 0);       // corrupt bit 2
    f.emit(f.lshr(k, 6));         // Fig. 11: bucket index drops low bits
    f.ret();
  }
  auto mod = pb.finish();
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 2));
  EXPECT_TRUE(rep.found(PatternKind::Shifting));
}

TEST(Detect, ShiftDoesNotMaskHighBits) {
  hl::ProgramBuilder pb("t");
  auto keys = pb.global_init_i64("keys", {0x3F5});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit(f.lshr(f.ld(keys, 0), 6));
    f.ret();
  }
  auto mod = pb.finish();
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 20));
  EXPECT_FALSE(rep.found(PatternKind::Shifting));
}

// --- Pattern 5: Truncation -----------------------------------------------------------

TEST(Detect, NarrowingCastMasksMantissa) {
  hl::ProgramBuilder pb("t");
  auto a = pb.global_init_f64("a", {123.456});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit(f.fptosi(f.ld(a, 0)));  // (int) drops the fraction
    f.ret();
  }
  auto mod = pb.finish();
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  // Bit 44 perturbs well below the integer part of 123.456.
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 30));
  EXPECT_TRUE(rep.found(PatternKind::Truncation));
}

TEST(Detect, EmitTruncMasksLowMantissa) {
  hl::ProgramBuilder pb("t");
  auto a = pb.global_init_f64("a", {1.875});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit_trunc(f.ld(a, 0), 6);  // "%12.6e" (Pattern 5 in LULESH)
    f.ret();
  }
  auto mod = pb.finish();
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 3));
  EXPECT_TRUE(rep.found(PatternKind::Truncation));
}

// --- Pattern 2: Repeated Additions ------------------------------------------------

TEST(Detect, RepeatedAdditionsAmortizeError) {
  hl::ProgramBuilder pb("t");
  auto u = pb.global_init_f64("u", {1.0});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    // u[0] grows by clean increments: the relative error of an early
    // corruption shrinks with every accumulation (Fig. 9 dynamics).
    f.for_("i", 0, 12, [&](hl::Value) {
      f.st(u, 0, f.ld(u, 0) + 10.0);
    });
    f.emit(f.ld(u, 0));
    f.ret();
  }
  auto mod = pb.finish();
  // Target the f64 load of u[0], not the loop counter's i64 load.
  const auto idx = find_index(mod, [](const vm::DynInstr& r) {
    return r.op == ir::Opcode::Load && r.type == ir::Type::F64;
  });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 40));
  EXPECT_TRUE(rep.found(PatternKind::RepeatedAdditions));
  // Detail carries the shrinking error magnitude.
  double last = 1e300;
  bool decreasing = true;
  for (const auto& inst : rep.instances) {
    if (inst.kind != PatternKind::RepeatedAdditions) continue;
    if (inst.detail > last) decreasing = false;
    last = inst.detail;
  }
  EXPECT_TRUE(decreasing);
}

TEST(Detect, NonAccumulatingStoreIsNotRepeatedAddition) {
  hl::ProgramBuilder pb("t");
  auto u = pb.global_init_f64("u", {1.0});
  auto w = pb.global_f64("w", 1);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.for_("i", 0, 12, [&](hl::Value i) {
      f.st(w, 0, f.ld(u, 0) + f.sitofp(i));  // different destination
    });
    f.emit(f.ld(w, 0));
    f.ret();
  }
  auto mod = pb.finish();
  const auto idx = find_index(
      mod, [](const vm::DynInstr& r) { return r.op == ir::Opcode::Load; });
  const auto rep = detect(mod, vm::FaultPlan::result_bit(idx, 40));
  EXPECT_FALSE(rep.found(PatternKind::RepeatedAdditions));
}

// --- rates (Table IV features) -----------------------------------------------------

TEST(Rates, CountsMatchHandComputedMix) {
  hl::ProgramBuilder pb("t");
  auto u = pb.global_init_f64("u", {1.0});
  auto k = pb.global_init_i64("k", {0xFF});
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.emit(f.lshr(f.ld(k, 0), 4));            // one shift
    f.emit(f.fptosi(f.ld(u, 0)));             // one truncation
    f.st(u, 0, f.ld(u, 0) + 1.0);             // one accumulation store
    f.emit(f.ld(u, 0));
    f.ret();
  }
  auto mod = pb.finish();
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(mod, opts);
  const auto events = trace::LocationEvents::build(c.trace().span());
  const auto rates = patterns::measure_rates(c.trace().span(), events);

  const auto total = static_cast<double>(rates.total_instructions);
  EXPECT_NEAR(rates.of(PatternKind::Shifting), 1.0 / total, 1e-12);
  EXPECT_NEAR(rates.of(PatternKind::Truncation), 1.0 / total, 1e-12);
  EXPECT_NEAR(rates.of(PatternKind::RepeatedAdditions), 1.0 / total, 1e-12);
  // Straight-line SSA code never overwrites a location.
  EXPECT_EQ(rates.of(PatternKind::DataOverwriting), 0.0);
  EXPECT_GE(rates.of(PatternKind::DeadCorruptedLocations), 0.0);
}

TEST(Rates, LoopHeavyProgramHasHighConditionRate) {
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_i64("s", 0);
    f.for_("i", 0, 50, [&](hl::Value i) {
      f.if_(i.gt(25), [&] { s.set(s.get() + 1); });
    });
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(mod, opts);
  const auto events = trace::LocationEvents::build(c.trace().span());
  const auto rates = patterns::measure_rates(c.trace().span(), events);
  // Loop conditions + body conditions dominate.
  EXPECT_GT(rates.of(PatternKind::ConditionalStatement), 0.15);
  EXPECT_EQ(rates.of(PatternKind::Shifting), 0.0);
  // The loop-counter slot is rewritten every iteration.
  EXPECT_GT(rates.of(PatternKind::DataOverwriting), 0.0);
}

TEST(Rates, EmptyTraceIsSafe) {
  const auto events =
      trace::LocationEvents::build(std::span<const vm::DynInstr>{});
  const auto rates =
      patterns::measure_rates(std::span<const vm::DynInstr>{}, events);
  EXPECT_EQ(rates.total_instructions, 0u);
}

TEST(PatternNames, Stable) {
  EXPECT_EQ(patterns::pattern_name(PatternKind::DeadCorruptedLocations),
            "DCL");
  EXPECT_EQ(patterns::pattern_name(PatternKind::RepeatedAdditions), "RA");
  EXPECT_EQ(patterns::pattern_name(PatternKind::DataOverwriting), "DO");
  EXPECT_EQ(patterns::kAllPatterns.size(), patterns::kNumPatterns);
}

}  // namespace
}  // namespace ft
