// Region model: input/output/internal classification (§III-B) and the
// Case 1 / Case 2 tolerance classifier (§III-D).
#include <gtest/gtest.h>

#include "golden_diff.h"
#include "hl/builder.h"
#include "regions/io.h"
#include "regions/tolerance.h"
#include "trace/collector.h"
#include "trace/events.h"
#include "util/bits.h"
#include "vm/interp.h"

namespace ft {
namespace {

// A region that reads `in[]`, uses a temp, and writes `out[]` (read after).
struct Harness {
  ir::Module mod{"t"};
  std::uint32_t rid = 0;
  std::uint64_t in_addr = 0, out_addr = 0, tmp_addr = 0;

  static Harness make() {
    Harness h;
    hl::ProgramBuilder pb("t");
    auto in = pb.global_init_f64("in", {2.0, 3.0});
    auto tmp = pb.global_f64("tmp", 1);
    auto out = pb.global_f64("out", 1);
    const auto rid = pb.declare_region("r", 0, 0);
    const auto fid = pb.declare_function("main");
    {
      auto f = pb.define(fid);
      f.region(rid, [&] {
        auto t = f.ld(in, 0) * f.ld(in, 1);
        f.st(tmp, 0, t);
        f.st(out, 0, f.ld(tmp, 0) + 1.0);
      });
      f.emit(f.ld(out, 0));  // out is read after the region
      f.ret();
    }
    h.rid = rid;
    h.mod = pb.finish();
    h.in_addr = h.mod.global(*h.mod.find_global("in")).addr;
    h.out_addr = h.mod.global(*h.mod.find_global("out")).addr;
    h.tmp_addr = h.mod.global(*h.mod.find_global("tmp")).addr;
    return h;
  }
};

struct Classified {
  regions::RegionIo io;
  trace::RegionInstance inst;
};

Classified classify(const Harness& h) {
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  const auto r = vm::Vm::run(h.mod, opts);
  EXPECT_TRUE(r.completed());
  const auto insts = trace::segment_regions(c.trace().span());
  const auto inst = trace::find_instance(insts, h.rid, 0).value();
  const auto events = trace::LocationEvents::build(c.trace().span());
  const auto slice = c.trace().slice(inst.body_begin(), inst.body_end());
  return {regions::classify_io(slice, events, inst), inst};
}

TEST(RegionIo, InputsAreTheUpstreamValues) {
  const auto h = Harness::make();
  const auto [io, inst] = classify(h);
  EXPECT_TRUE(io.is_input(vm::mem_loc(h.in_addr)));
  EXPECT_TRUE(io.is_input(vm::mem_loc(h.in_addr + 8)));
  EXPECT_FALSE(io.is_input(vm::mem_loc(h.out_addr)));
  EXPECT_FALSE(io.is_input(vm::mem_loc(h.tmp_addr)));
}

TEST(RegionIo, OutputsAreLiveOutWrites) {
  const auto h = Harness::make();
  const auto [io, inst] = classify(h);
  EXPECT_TRUE(io.is_output(vm::mem_loc(h.out_addr)));
  // tmp is written and read only inside -> internal, not output.
  EXPECT_FALSE(io.is_output(vm::mem_loc(h.tmp_addr)));
  bool tmp_internal = false;
  for (const auto l : io.internals) {
    if (l == vm::mem_loc(h.tmp_addr)) tmp_internal = true;
  }
  EXPECT_TRUE(tmp_internal);
}

TEST(RegionIo, MemoryInputsFilterRegisters) {
  const auto h = Harness::make();
  const auto [io, inst] = classify(h);
  for (const auto& v : regions::memory_inputs(io)) {
    EXPECT_TRUE(vm::is_mem_loc(v.loc));
  }
  EXPECT_GE(regions::memory_inputs(io).size(), 2u);
}

TEST(RegionIo, InputValuesCaptured) {
  const auto h = Harness::make();
  const auto [io, inst] = classify(h);
  bool found = false;
  for (const auto& v : io.inputs) {
    if (v.loc == vm::mem_loc(h.in_addr)) {
      EXPECT_EQ(v.bits, util::f64_to_bits(2.0));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- tolerance classification ----------------------------------------------------

struct ToleranceRun {
  acl::ColumnDiff diff;
  regions::ToleranceReport report;
};

/// Diff `plan` against the golden run of `mod` and classify instance 0 of
/// region `rid` (the instance as the fault-free run segments it).
ToleranceRun tolerance_for(const ir::Module& mod, std::uint32_t rid,
                           const vm::FaultPlan& plan) {
  ToleranceRun run{testing_support::golden_diff(mod, plan), {}};
  const auto& diff = run.diff;
  const auto insts = trace::segment_regions(*diff.golden);
  const auto inst = trace::find_instance(insts, rid, 0).value();
  const auto events = trace::LocationEvents::build(diff.records());
  const auto slice = diff.records().slice(inst.body_begin(), inst.body_end());
  const auto io = regions::classify_io(slice, events, inst);
  std::uint64_t fault_index = acl::kNoIndex;
  if (plan.kind == vm::FaultPlan::Kind::ResultBit) {
    fault_index = plan.dyn_index;
  } else if (plan.kind == vm::FaultPlan::Kind::RegionInputMemoryBit) {
    fault_index = inst.enter_index;
  }
  run.report = regions::classify_tolerance(diff, inst, io, fault_index);
  return run;
}

regions::ToleranceReport tolerance_for(const Harness& h,
                                       const vm::FaultPlan& plan) {
  return tolerance_for(h.mod, h.rid, plan).report;
}

TEST(Tolerance, AdditiveRegionReducesErrorMagnitudeCase2) {
  // out = in0*in1 + 1: the multiply preserves relative error and the +1
  // shrinks it, so the region reduces error magnitude across its boundary —
  // the paper's Case 2.
  const auto h = Harness::make();
  const auto plan = vm::FaultPlan::region_input_bit(h.rid, 0, h.in_addr, 8, 51);
  const auto rep = tolerance_for(h, plan);
  EXPECT_EQ(rep.verdict, regions::ToleranceCase::Case2Reduced);
  EXPECT_GT(rep.corrupted_inputs, 0u);
  EXPECT_GT(rep.corrupted_outputs, 0u);
  EXPECT_GT(rep.max_input_error, 0.0);
  EXPECT_LT(rep.max_output_error, rep.max_input_error);
}

TEST(Tolerance, ErrorAmplifyingRegionIsNotTolerant) {
  // out = in*in doubles relative error: magnitude grows -> NotTolerant.
  hl::ProgramBuilder pb("t");
  auto in = pb.global_init_f64("in", {2.0});
  auto out = pb.global_f64("out", 1);
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.region(rid, [&] {
      auto v = f.ld(in, 0);
      f.st(out, 0, v * v);
    });
    f.emit(f.ld(out, 0));
    f.ret();
  }
  auto mod = pb.finish();
  const auto in_addr = mod.global(*mod.find_global("in")).addr;

  const auto rep =
      tolerance_for(mod, rid,
                    vm::FaultPlan::region_input_bit(rid, 0, in_addr, 8, 51))
          .report;
  EXPECT_EQ(rep.verdict, regions::ToleranceCase::NotTolerant);
  EXPECT_GT(rep.max_output_error, rep.max_input_error);
}

TEST(Tolerance, NoFaultMeansNotAffected) {
  const auto h = Harness::make();
  const auto rep = tolerance_for(h, vm::FaultPlan::none());
  EXPECT_EQ(rep.verdict, regions::ToleranceCase::NotAffected);
  EXPECT_EQ(rep.corrupted_inputs, 0u);
  EXPECT_EQ(rep.corrupted_outputs, 0u);
}

TEST(Tolerance, MaskedRegionIsCase1) {
  // Region whose output does not depend on the corrupted temp: out = in,
  // while tmp gets corrupted and dies -> Case 1 (masked).
  hl::ProgramBuilder pb("t");
  auto in = pb.global_init_f64("in", {2.0});
  auto tmp = pb.global_f64("tmp", 1);
  auto out = pb.global_f64("out", 1);
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.region(rid, [&] {
      f.st(tmp, 0, f.ld(tmp, 0) * 3.0);  // consumes the corrupted input
      f.st(out, 0, f.ld(in, 0));
    });
    f.emit(f.ld(out, 0));
    f.ret();
  }
  auto mod = pb.finish();
  const auto tmp_addr = mod.global(*mod.find_global("tmp")).addr;

  const auto [diff, rep] = tolerance_for(
      mod, rid, vm::FaultPlan::region_input_bit(rid, 0, tmp_addr, 8, 60));
  EXPECT_EQ(rep.verdict, regions::ToleranceCase::Case1Masked);
  EXPECT_EQ(rep.corrupted_outputs, 0u);
  // The faulty run's final output is identical to the clean run's.
  EXPECT_EQ(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(Tolerance, BranchFlipInsideRegionIsDivergent) {
  // The region branches on its input: flipping the sign bit at region entry
  // takes the other arm, so the faulty and fault-free streams part inside
  // the region and cannot be compared record by record.
  hl::ProgramBuilder pb("t");
  auto in = pb.global_init_i64("in", {4});
  auto out = pb.global_i64("out", 1);
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    f.region(rid, [&] {
      f.if_else(f.ld(in, 0).gt(2), [&] { f.st(out, 0, f.c_i64(111)); },
                [&] { f.st(out, 0, f.c_i64(222)); });
    });
    f.emit(f.ld(out, 0));
    f.ret();
  }
  auto mod = pb.finish();
  const auto in_addr = mod.global(*mod.find_global("in")).addr;

  const auto [diff, rep] = tolerance_for(
      mod, rid, vm::FaultPlan::region_input_bit(rid, 0, in_addr, 8, 63));
  ASSERT_TRUE(diff.diverged());
  EXPECT_EQ(rep.verdict, regions::ToleranceCase::Divergent);
  EXPECT_NE(diff.faulty_result.outputs, diff.clean_result.outputs);
}

TEST(Tolerance, NamesAreStable) {
  EXPECT_EQ(regions::tolerance_name(regions::ToleranceCase::Case1Masked),
            "case1-masked");
  EXPECT_EQ(regions::tolerance_name(regions::ToleranceCase::Divergent),
            "divergent");
}

}  // namespace
}  // namespace ft
