// ftbench — the repository benchmark's single binary.
//
//   ftbench --workload <campaign|patterns|predict|service> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics of untraced rounds;
// --trace 1 reports the per-layer metrics of a traced run and writes its
// spans as Chrome trace-event JSON into --out-dir. perfbench/run.py builds
// this binary and is the entry point to use.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ftbench: %s\nusage: ftbench --workload "
               "<campaign|patterns|predict|service> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes an integer");
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0) ||
          opt.seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (key == "--out-dir") {
      opt.out_dir = value;
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  opt.nproc = std::max(1u, std::thread::hardware_concurrency());
  return opt;
}

void print_result(const perfbench::Result& r) {
  for (const auto& p : r.problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& m : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = parse(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "ftbench: cannot create %s: %s\n",
                 opt.out_dir.c_str(), ec.message().c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %.1f s, trace %d, %u hardware threads\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.nproc);
  perfbench::Result result;
  try {
    if (opt.workload == "campaign") {
      result = perfbench::run_campaign(opt);
    } else if (opt.workload == "patterns") {
      result = perfbench::run_patterns(opt);
    } else if (opt.workload == "predict") {
      result = perfbench::run_predict(opt);
    } else if (opt.workload == "service") {
      result = perfbench::run_service(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench: %s\n", e.what());
    return 1;
  }
  for (const auto& m : result.metrics) {
    result.check(std::isfinite(m.value), "metric " + m.name + " is finite");
  }
  print_result(result);
  return result.correct ? 0 : 1;
}
