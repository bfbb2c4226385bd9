// Session-level and leftover-utility coverage: AnalysisSession caching
// semantics, string formatting, streaming trace sinks, observer gating.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/analysis.h"
#include "hl/builder.h"
#include "trace/file.h"
#include "trace/file_sink.h"
#include "util/strfmt.h"

namespace ft {
namespace {

// --- strfmt ---------------------------------------------------------------------

TEST(Strfmt, PrintfStyle) {
  EXPECT_EQ(util::strfmt("x=%d y=%s", 42, "ok"), "x=42 y=ok");
  EXPECT_EQ(util::strfmt("%.2f", 1.2345), "1.23");
  EXPECT_EQ(util::strfmt("empty"), "empty");
}

TEST(Format, BraceStyle) {
  EXPECT_EQ(util::format("a {} b {}", 1, "two"), "a 1 b two");
  EXPECT_EQ(util::format("{}", 3.5), "3.5");
  EXPECT_EQ(util::format("{:.6g}", 1.25), "1.25");  // spec accepted, %g used
  EXPECT_EQ(util::format("{{literal}}"), "{literal}");
  EXPECT_EQ(util::format("trailing {}", std::string("s")), "trailing s");
  EXPECT_EQ(util::format("{} {} {}", 1, 2), "1 2 ");  // missing arg = empty
  EXPECT_EQ(util::format("no placeholders", 9), "no placeholders");
}

// --- streaming file sink ------------------------------------------------------------

TEST(FileSink, WritesReadableTraceFiles) {
  hl::ProgramBuilder pb("t");
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_f64("s", 0.0);
    f.for_("i", 0, 200, [&](hl::Value i) { s.set(s.get() + f.sitofp(i)); });
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();

  const auto path =
      (std::filesystem::temp_directory_path() / "ft_sink_test.fttrace")
          .string();
  std::uint64_t written = 0;
  {
    trace::StreamingFileTracer sink(path, /*buffer_records=*/64);
    ASSERT_TRUE(sink.ok());
    vm::VmOptions opts;
    opts.observer = &sink;
    const auto r = vm::Vm::run(mod, opts);
    sink.close();
    written = sink.records_written();
    EXPECT_EQ(written, r.instructions);
  }
  trace::Trace loaded;
  ASSERT_TRUE(trace::read_trace_file(path, loaded));
  EXPECT_EQ(loaded.size(), written);
  // Record stream is the same as an in-memory collection.
  trace::TraceCollector c;
  vm::VmOptions opts;
  opts.observer = &c;
  (void)vm::Vm::run(mod, opts);
  ASSERT_EQ(c.trace().size(), loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.records[i].result_bits, c.trace().records[i].result_bits);
  }
  std::filesystem::remove(path);
}

TEST(FileSink, BadPathReportsNotOk) {
  trace::StreamingFileTracer sink("/nonexistent-dir/nope.fttrace");
  EXPECT_FALSE(sink.ok());
  vm::DynInstr d;
  sink.on_instruction(d);  // must not crash
  EXPECT_EQ(sink.records_written(), 0u);
}

// --- observer gating (trace control) --------------------------------------------------

class GatedCounter final : public vm::ExecObserver {
 public:
  void on_instruction(const vm::DynInstr& d) override {
    seen++;
    if (d.op == ir::Opcode::RegionEnter) gate = true;
    if (d.op == ir::Opcode::RegionExit) gate = false;
  }
  [[nodiscard]] bool enabled() const override { return gate; }
  std::size_t seen = 0;
  bool gate = false;
};

TEST(ObserverGating, OnlyWindowAndMarkersDelivered) {
  hl::ProgramBuilder pb("t");
  const auto rid = pb.declare_region("r", 0, 0);
  const auto fid = pb.declare_function("main");
  {
    auto f = pb.define(fid);
    auto s = f.var_i64("s", 0);
    f.for_("i", 0, 50, [&](hl::Value i) { s.set(s.get() + i); });  // outside
    f.region(rid, [&] {
      f.for_("i", 0, 10, [&](hl::Value i) { s.set(s.get() + i); });
    });
    f.for_("i", 0, 50, [&](hl::Value i) { s.set(s.get() + i); });  // outside
    f.emit(s.get());
    f.ret();
  }
  auto mod = pb.finish();

  GatedCounter gated;
  vm::VmOptions gopts;
  gopts.observer = &gated;
  const auto rg = vm::Vm::run(mod, gopts);

  trace::TraceCollector all;
  vm::VmOptions aopts;
  aopts.observer = &all;
  (void)vm::Vm::run(mod, aopts);

  // The gated observer sees the region body + the two markers, far fewer
  // than the full stream, and execution results are unaffected.
  EXPECT_LT(gated.seen, all.trace().size() / 2);
  EXPECT_GT(gated.seen, 10u);
  EXPECT_TRUE(rg.completed());
}

// --- session caching ---------------------------------------------------------------------

TEST(SessionCaching, TraceRebuildAfterInvalidate) {
  core::AnalysisSession session(apps::build_sp());
  const auto n1 = session.golden_trace()->size();
  const auto e1 = session.golden_events()->num_locations();
  session.invalidate_trace();
  const auto n2 = session.golden_trace()->size();
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(e1, session.golden_events()->num_locations());
}

TEST(SessionCaching, MissingRegionInstanceHandledGracefully) {
  core::AnalysisSession session(apps::build_sp());
  EXPECT_FALSE(session.region_io(0, 9999).has_value());
  const auto g = session.region_dddg(0, 9999);
  EXPECT_EQ(g->num_nodes(), 0u);
}

TEST(SessionCaching, DiffWithRecordCap) {
  core::AnalysisSession session(apps::build_sp());
  const auto diff = session.column_diff_with(
      vm::FaultPlan::result_bit(1000, 5), /*max_records=*/500);
  EXPECT_TRUE(diff.truncated);
  EXPECT_EQ(diff.usable_records(), 500u);
  // Outcome classification still covers the full run.
  EXPECT_TRUE(diff.clean_result.completed());
}

class SessionOverApps : public ::testing::TestWithParam<std::string> {};

TEST_P(SessionOverApps, AllAnalysisRegionsClassifiable) {
  core::AnalysisSession session(apps::build_app(GetParam()));
  for (const auto& rd : session.app().analysis_regions) {
    const auto io = session.region_io(rd.id, 0);
    ASSERT_TRUE(io.has_value()) << rd.name;
    // Every region must write something the program later consumes, except
    // pure sinks; at minimum the classification must be self-consistent.
    for (const auto& in : io->inputs) {
      EXPECT_FALSE(io->is_output(in.loc) && io->is_input(in.loc) &&
                   in.loc == vm::kNoLoc);
    }
    for (const auto l : io->internals) {
      EXPECT_FALSE(io->is_input(l)) << rd.name;
      EXPECT_FALSE(io->is_output(l)) << rd.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paper, SessionOverApps,
                         ::testing::Values("CG", "MG", "IS", "LU", "SP"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace ft
