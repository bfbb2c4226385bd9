// Quickstart: build a tiny program with the high-level builder, wrap it in
// an AnalysisSession, inject one bit flip, and watch the analysis explain
// what happened.
//
//   $ ./quickstart
//
// Walks through the library's core loop: program -> session (golden run +
// trace, cached) -> fault plan -> differential run -> ACL table -> pattern
// report.
#include <cstdio>

#include "acl/table.h"
#include "core/analysis.h"
#include "hl/builder.h"
#include "util/bits.h"

using namespace ft;

int main() {
  // 1. A little program: sum an array, overwrite a temp, emit the result.
  hl::ProgramBuilder pb("quickstart");
  auto data = pb.global_init_f64("data", {1.0, 2.0, 3.0, 4.0, 5.0});
  auto tmp = pb.global_f64("tmp", 1);
  const auto region = pb.declare_region("sum_loop", __LINE__, __LINE__);
  const auto main_fn = pb.declare_function("main");
  {
    auto f = pb.define(main_fn);
    auto sum = f.var_f64("sum", 0.0);
    f.region(region, [&] {
      f.for_("i", 0, 5, [&](hl::Value i) {
        f.st(tmp, 0, f.ld(data, i));          // corruption target
        sum.set(sum.get() + f.ld(tmp, 0));
      });
    });
    f.st(tmp, 0, f.c_f64(0.0));               // clean overwrite of the temp
    f.emit(sum.get());
    f.ret();
  }

  // 2. An AnalysisSession owns the golden artifacts (run, trace, region
  //    instances) behind caches; any analysis below reuses them.
  apps::AppSpec spec;
  spec.name = "quickstart";
  spec.module = pb.finish();
  spec.verifier = apps::standard_verifier(1e-9);
  core::AnalysisSession session(std::move(spec));

  const auto golden = session.golden();
  std::printf("golden sum = %.3f (%llu dynamic instructions)\n",
              golden->outputs[0].as_f64(),
              static_cast<unsigned long long>(golden->instructions));

  // 3. Find an injection target: the load of data[2] in the golden trace
  //    (a columnar trace; the view's cursor materializes records on
  //    demand).
  std::uint64_t target = 0;
  for (const vm::DynInstr& r : session.golden_trace()->view()) {
    if (r.op == ir::Opcode::Load &&
        r.result_bits == util::f64_to_bits(3.0)) {
      target = r.index;
      break;
    }
  }
  std::printf("injecting: flip bit 50 of the load of data[2] "
              "(dynamic instruction %llu)\n",
              static_cast<unsigned long long>(target));

  // 4. Differential run: only the faulty program executes; the fault-free
  //    side is read from the cached golden trace, record by record.
  const auto plan = vm::FaultPlan::result_bit(target, 50);
  const auto diff = session.column_diff_with(plan);
  std::printf("faulty sum = %.3f (clean %.3f)\n",
              diff.faulty_result.outputs[0].as_f64(),
              diff.clean_result.outputs[0].as_f64());

  // 5. ACL table + pattern report, straight from the session.
  const auto report = session.patterns_for(plan);
  std::printf("\nACL: max alive corrupted locations = %u\n",
              report.acl.max_count);
  for (const auto& e : report.acl.events) {
    std::printf("  @%-6llu %-18s %s\n",
                static_cast<unsigned long long>(e.index),
                std::string(acl::acl_event_kind_name(e.kind)).c_str(),
                vm::loc_to_string(e.loc).c_str());
  }
  std::printf("\nresilience patterns observed:\n");
  for (const auto kind : patterns::kAllPatterns) {
    if (report.found(kind)) {
      std::printf("  %s x%zu\n",
                  std::string(patterns::pattern_name(kind)).c_str(),
                  report.count(kind));
    }
  }
  return 0;
}
