// Decode-equivalence coverage: the decoded engine (vm/decode.h + the
// decoded Vm paths) must be bit-identical to the legacy tree-walking
// engine — record by record when stepped, and in outputs / trap kind /
// fault-fired flag / retired count when run to completion (the untraced
// hot loop). Pinned for all ten workloads, clean and faulted, plus the
// decoded-program structure itself.
#include <gtest/gtest.h>

#include <sstream>

#include "apps/app.h"
#include "hl/builder.h"
#include "trace/collector.h"
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
     << " result_bits=" << d.result_bits << " result_loc=" << d.result_loc;
  return os.str();
}

/// Step a legacy and a decoded Vm in lockstep and require a bit-identical
/// record stream and identical end state.
void expect_lockstep_identical(const ir::Module& m,
                               const vm::DecodedProgram& prog,
                               const vm::VmOptions& opts) {
  vm::Vm legacy(m, opts);
  vm::Vm decoded(prog, opts);
  vm::DynInstr rl, rd;
  std::uint64_t mismatches = 0;
  while (true) {
    const auto sl = legacy.step(&rl);
    const auto sd = decoded.step(&rd);
    ASSERT_EQ(sl, sd) << "engine status diverged at instruction "
                      << legacy.instructions_retired();
    if (sl != vm::Vm::Status::Running) break;
    if (!same_record(rl, rd) && mismatches++ < 5) {
      ADD_FAILURE() << "record mismatch:\n  legacy : " << describe(rl)
                    << "\n  decoded: " << describe(rd);
    }
  }
  EXPECT_EQ(mismatches, 0u);
  const auto fl = legacy.take_result();
  const auto fd = decoded.take_result();
  EXPECT_EQ(fl.trap, fd.trap);
  EXPECT_EQ(fl.instructions, fd.instructions);
  EXPECT_EQ(fl.fault_fired, fd.fault_fired);
  EXPECT_TRUE(fl.outputs == fd.outputs);
}

/// Run both engines to completion on their untraced fast paths (the hot
/// loop on the decoded side) and require identical results.
void expect_runs_identical(const ir::Module& m,
                           const vm::DecodedProgram& prog,
                           const vm::VmOptions& opts) {
  const auto rl = vm::Vm::run(m, opts);
  const auto rd = vm::Vm::run(prog, opts);
  EXPECT_EQ(rl.trap, rd.trap);
  EXPECT_EQ(rl.instructions, rd.instructions);
  EXPECT_EQ(rl.fault_fired, rd.fault_fired);
  EXPECT_TRUE(rl.outputs == rd.outputs);
}

class DecodeEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(DecodeEquivalence, CleanRunBitIdentical) {
  const auto app = apps::build_app(GetParam());
  const auto prog = vm::DecodedProgram::decode(app.module);
  expect_lockstep_identical(app.module, prog, app.base);
  expect_runs_identical(app.module, prog, app.base);
}

TEST_P(DecodeEquivalence, FaultedRunsBitIdentical) {
  const auto app = apps::build_app(GetParam());
  const auto prog = vm::DecodedProgram::decode(app.module);

  // A mid-run register-commit flip (traced lockstep + untraced hot loop)...
  vm::VmOptions faulted = app.base;
  faulted.fault = vm::FaultPlan::result_bit(/*dyn_index=*/40000, /*bit=*/40);
  expect_lockstep_identical(app.module, prog, faulted);
  expect_runs_identical(app.module, prog, faulted);

  // ...high-bit flips that often trap (OutOfBounds / hang budget paths)...
  vm::VmOptions crashy = app.base;
  crashy.fault = vm::FaultPlan::result_bit(/*dyn_index=*/5000, /*bit=*/62);
  crashy.max_instructions = 400000;  // exercise the hang trap identically
  expect_runs_identical(app.module, prog, crashy);

  // ...and a region-input memory flip at a region entry.
  if (app.main_region != ~std::uint32_t{0} &&
      app.module.num_globals() > 0) {
    const auto& g = app.module.global(0);
    vm::VmOptions region_fault = app.base;
    region_fault.fault = vm::FaultPlan::region_input_bit(
        app.main_region, 0, g.addr, store_size(g.elem), 17);
    expect_runs_identical(app.module, prog, region_fault);
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, DecodeEquivalence,
                         ::testing::ValuesIn(apps::all_app_names()),
                         [](const auto& info) { return info.param; });

// --- traced-run / observer-gating equivalence ----------------------------------

TEST(DecodeTrace, GatedObserverSeesIdenticalWindow) {
  const auto app = apps::build_sp();
  const auto prog = vm::DecodedProgram::decode(app.module);

  const auto windowed = [&](auto&& executable) {
    trace::TraceCollector sink;
    vm::RegionWindowGate gate(&sink, app.main_region, /*instance=*/1);
    vm::VmOptions opts = app.base;
    opts.observer = &gate;
    (void)vm::Vm::run(executable, opts);
    return sink.take();
  };
  const auto tl = windowed(app.module);
  const auto td = windowed(prog);
  ASSERT_EQ(tl.size(), td.size());
  ASSERT_FALSE(tl.empty());
  for (std::size_t i = 0; i < tl.size(); ++i) {
    ASSERT_TRUE(same_record(tl.records[i], td.records[i])) << "at " << i;
  }
}

// --- decoded-program structure -------------------------------------------------

TEST(DecodedProgram, FlattensModulesWithDenseTargets) {
  hl::ProgramBuilder pb("t");
  const auto helper = pb.declare_function("helper", ir::Type::I64,
                                          {{ir::Type::I64, "x"}});
  {
    auto f = pb.define(helper);
    f.ret(f.arg(0) + 1);
  }
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_i64("s", 0);
    f.for_("i", 0, 10, [&](hl::Value i) {
      s.set(s.get() + f.call(helper, {i}));
    });
    f.emit(s.get());
    f.ret();
  }
  const auto mod = pb.finish();
  const auto prog = vm::DecodedProgram::decode(mod);

  // One decoded instruction per static instruction, flat and in order.
  std::size_t total = 0;
  for (std::uint32_t f = 0; f < mod.num_functions(); ++f) {
    total += mod.function(f).instruction_count();
  }
  EXPECT_EQ(prog.code_size(), total);
  EXPECT_EQ(prog.entry_function(), mod.entry());

  for (std::size_t pc = 0; pc < prog.code_size(); ++pc) {
    const auto& d = prog.code()[pc];
    // Static coordinates round-trip to the original instruction.
    const auto& ins = mod.function(d.func).blocks[d.block].instrs[d.instr];
    EXPECT_EQ(d.op, ins.op);
    EXPECT_EQ(d.result, ins.result);
    EXPECT_EQ(static_cast<std::size_t>(d.src_count), ins.ops.size());
    // Branch targets land on the first instruction of a block of the same
    // function.
    if (d.op == ir::Opcode::Br || d.op == ir::Opcode::CondBr) {
      const auto& target = prog.code()[d.target_taken];
      EXPECT_EQ(target.func, d.func);
      EXPECT_EQ(target.instr, 0u);
    }
  }

  // Executing the decoded form is identical (calls included).
  expect_lockstep_identical(mod, prog, {});
}

TEST(DecodedProgram, ImmediatesArePreCanonicalized) {
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_i64("s", -7);
    s.set(s.get() * 3);
    f.emit(s.get());
    f.ret();
  }
  const auto mod = pb.finish();
  const auto prog = vm::DecodedProgram::decode(mod);
  // Every constant operand carries fully-resolved bits: re-canonicalizing
  // is a no-op, and no operand kind needs module lookups at run time.
  for (std::size_t pc = 0; pc < prog.code_size(); ++pc) {
    const auto& d = prog.code()[pc];
    for (std::uint32_t i = 0; i < d.src_count; ++i) {
      const auto& s = prog.srcs()[d.src_begin + i];
      if (s.kind == vm::SrcKind::Const && is_int(s.type)) {
        EXPECT_EQ(s.bits, vm::canon_int(s.bits, s.type));
      }
    }
  }
}

}  // namespace
}  // namespace ft
