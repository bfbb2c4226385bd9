// Table I: resilience computation patterns found in the code regions of
// CG, MG, KMEANS, IS and LULESH — with source lines and the dynamic
// instruction count of one iteration (region instance 0).
//
// Method (§III-D): sample a handful of injections per region (internal
// result bits and region-entry input bits), run the differential ACL sweep
// with the pattern detectors, and union what is observed. A pattern counts
// for a region when it fires *inside* that region's instance-0 span.
#include <array>

#include "bench_common.h"
#include "util/cli.h"

namespace {

using namespace ft;

struct RegionPatterns {
  std::array<bool, patterns::kNumPatterns> found{};
  std::uint64_t instr_per_iteration = 0;
};

}  // namespace

namespace {

int run_main(int argc, char** argv) {
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  const util::Cli cli(argc, argv);
  const auto samples =
      static_cast<std::size_t>(cli.get_int("samples", cfg.full ? 24 : 12));
  bench::print_header("Table I - resilience patterns per code region", cfg);
  std::printf("injection samples per region/class: %zu (--samples=N)\n\n",
              samples);

  std::vector<std::string> header = {"program", "region", "lines",
                                     "#instr/iter", "found?"};
  for (const auto kind : patterns::kAllPatterns) {
    header.emplace_back(patterns::pattern_name(kind));
  }
  util::Table table(header);

  for (const std::string name : {"CG", "MG", "KMEANS", "IS", "LULESH"}) {
    core::AnalysisSession session(apps::build_app(name));
    const auto& app = session.app();
    const auto instances = session.region_instances();
    for (const auto& rd : app.analysis_regions) {
      const auto inst = trace::find_instance(*instances, rd.id, 0);
      if (!inst) continue;
      RegionPatterns rp;
      rp.instr_per_iteration = inst->body_length();

      // A pattern is credited to this region when it fires inside *any*
      // dynamic instance of it — Repeated Additions, for example, amortizes
      // the error across later instances of the same loop (Table II).
      const auto region_spans = trace::instances_of(*instances, rd.id);
      auto inside_region = [&](std::uint64_t index) {
        for (const auto& span : region_spans) {
          if (index >= span.enter_index && index <= span.exit_index) {
            return true;
          }
        }
        return false;
      };

      const auto sites = session.region_sites(rd.id, 0);
      for (const auto target :
           {fault::TargetClass::Internal, fault::TargetClass::Input}) {
        const auto plans = fault::sample_plans(
            *sites, target, samples,
            cfg.seed + (target == fault::TargetClass::Input ? 17 : 0));
        for (const auto& plan : plans) {
          const auto rep = session.patterns_for(plan);
          for (const auto& pi : rep.instances) {
            if (!inside_region(pi.index)) continue;
            rp.found[patterns::pattern_index(pi.kind)] = true;
          }
        }
      }

      bool any = false;
      for (const bool b : rp.found) any |= b;
      const auto& info = app.module.region(rd.id);
      std::vector<std::string> row = {
          name, rd.name,
          std::to_string(info.line_begin) + "-" + std::to_string(info.line_end),
          std::to_string(rp.instr_per_iteration), any ? "YES" : "NO"};
      for (const auto kind : patterns::kAllPatterns) {
        row.emplace_back(rp.found[patterns::pattern_index(kind)] ? "x" : "");
      }
      table.add_row(std::move(row));
    }
  }
  table.print(std::cout);
  std::printf(
      "\nPaper shape: MG regions show RA+DO; is_b shows Shifting; KMEANS\n"
      "k_c/k_d show CS/DO; LULESH l_a shows DCL+DO; DO is ubiquitous.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
