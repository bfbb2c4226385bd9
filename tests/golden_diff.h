// Test helper: a differential run of a small module the way an
// AnalysisSession runs one — decode once, trace the fault-free run, then
// diff the faulty run against that golden trace.
#pragma once

#include <memory>

#include "acl/diff.h"
#include "ir/module.h"
#include "trace/column.h"
#include "vm/decode.h"
#include "vm/interp.h"

namespace ft::testing_support {

/// The traced fault-free run of `prog` under `base`.
struct Golden {
  std::shared_ptr<const trace::ColumnTrace> trace;
  vm::RunResult run;
};

inline Golden traced_golden(
    const std::shared_ptr<const vm::DecodedProgram>& prog,
    vm::VmOptions base) {
  trace::ColumnTrace sink(prog);
  base.column_sink = &sink;
  Golden g;
  g.run = vm::Vm::run(*prog, base);
  g.trace = std::make_shared<const trace::ColumnTrace>(std::move(sink));
  return g;
}

/// `plan` diffed against the golden trace of `m` (default base options).
/// The diff reads the decoded program, which refers into `m`: keep the
/// module alive while the diff is in use.
inline acl::ColumnDiff golden_diff(const ir::Module& m,
                                   const vm::FaultPlan& plan) {
  const auto golden = traced_golden(
      std::make_shared<const vm::DecodedProgram>(
          vm::DecodedProgram::decode(m)),
      vm::VmOptions{});
  acl::DiffOptions opts;
  opts.fault = plan;
  return acl::diff_against_golden(golden.trace, golden.run, opts);
}

}  // namespace ft::testing_support
