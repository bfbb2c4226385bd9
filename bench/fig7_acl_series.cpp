// Figure 7: the number of Alive Corrupted Locations over dynamic
// instructions in LULESH after a fault injected in the last third of the
// main loop.
//
// Paper shape: corruption count rises inside the LagrangeNodal-analog
// kernel (hourgam/hxx temporaries), collapses when the temporaries die or
// are overwritten, and repeats across the remaining iterations, ending low.
#include "bench_common.h"
#include "util/cli.h"

namespace {

int run_main(int argc, char** argv) {
  using namespace ft;
  const auto cfg = bench::BenchConfig::parse(argc, argv);
  bench::print_header("Fig. 7 - LULESH ACL series", cfg);

  core::AnalysisSession session(apps::build_lulesh());
  const auto& app = session.app();

  // Fault: one bit of a velocity word at entry of iteration 7 of 10 — the
  // "last third iteration of the main loop" of the paper.
  const auto xd = app.module.global(*app.module.find_global("xd"));
  const util::Cli cli(argc, argv);
  const auto instance = static_cast<std::uint32_t>(cli.get_int("iteration", 7));
  const auto bit = static_cast<std::uint32_t>(cli.get_int("bit", 45));
  const auto plan = vm::FaultPlan::region_input_bit(
      app.main_region, instance, xd.addr + 13 * 8, 8, bit);

  const auto rep = session.patterns_for(plan);
  const auto& acl = rep.acl;
  if (acl.count.empty()) {
    std::printf("no usable lockstep prefix (fault diverged immediately)\n");
    return 1;
  }

  std::printf("fault: xd[13] bit %u at main-loop iteration %u (of %d)\n",
              bit, instance + 1, app.main_iters);
  std::printf("first corruption at dynamic instruction %llu\n",
              static_cast<unsigned long long>(acl.first_corruption_index));
  std::printf("max alive corrupted locations: %u, final: %u\n",
              acl.max_count, acl.final_count());
  std::printf("kills: overwrite=%zu dead=%zu end-of-trace=%zu\n\n",
              acl.kills(acl::AclEventKind::KillOverwrite),
              acl.kills(acl::AclEventKind::KillDead),
              acl.kills(acl::AclEventKind::KillEndOfTrace));

  // Downsampled series, plus a sparkline per bucket, starting just before
  // the injection.
  const std::size_t begin =
      acl.first_corruption_index > 50 ? acl.first_corruption_index - 50 : 0;
  const std::size_t n = acl.count.size() - begin;
  const std::size_t buckets = 60;
  const std::size_t step = std::max<std::size_t>(1, n / buckets);
  util::Table table({"dyn instr", "ACL count", "bar"});
  for (std::size_t i = begin; i < acl.count.size(); i += step) {
    // Peak within the bucket, so short-lived spikes stay visible.
    std::uint32_t peak = 0;
    for (std::size_t j = i; j < std::min(i + step, acl.count.size()); ++j) {
      peak = std::max(peak, acl.count[j]);
    }
    table.add_row({std::to_string(i), std::to_string(peak),
                   std::string(std::min<std::uint32_t>(peak, 48), '#')});
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ft::util::run_cli(argv[0], [&] { return run_main(argc, argv); });
}
