#include "apps/app.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string_view>

namespace ft::apps {

fault::Verifier standard_verifier(double rel_tol) {
  const auto tol = fault::tolerance_verifier(rel_tol);
  return [tol](const std::vector<vm::OutputValue>& got,
               const std::vector<vm::OutputValue>& golden) {
    if (got.empty() || golden.empty()) return false;
    // The program's own verification phase must agree...
    if (got[0].type != ir::Type::I64 || got[0].bits != 1) return false;
    // ...and the payload must match the golden run within tolerance.
    return tol(got, golden);
  };
}

AppSpec bake(const std::function<AppSpec(double)>& build) {
  AppSpec draft = build(std::nan(""));
  const auto run = vm::Vm::run(draft.module, draft.base);
  if (!run.completed() || run.outputs.empty()) {
    throw std::runtime_error("apps::bake: draft run of '" + draft.name +
                             "' failed (trap " +
                             std::string(vm::trap_name(run.trap)) + ")");
  }
  const double ref = run.outputs.back().as_f64();
  AppSpec baked = build(ref);
  return baked;
}

const std::vector<std::string>& all_app_names() {
  static const std::vector<std::string> names = {
      "CG", "MG", "LU", "BT", "IS", "DC", "SP", "FT", "KMEANS", "LULESH"};
  return names;
}

namespace {

struct Builder {
  std::string_view name;
  AppSpec (*build)();
};

/// Every application build_app knows: the ten paper benchmarks and the
/// rank-decomposed variants.
constexpr Builder kBuilders[] = {
    {"CG", build_cg},         {"MG", build_mg},
    {"IS", build_is},         {"KMEANS", build_kmeans},
    {"LULESH", build_lulesh}, {"LU", build_lu},
    {"BT", build_bt},         {"SP", build_sp},
    {"DC", build_dc},         {"FT", build_ft},
    {"CG-RANKED", build_cg_ranked},
    {"MG-RANKED", build_mg_ranked},
    {"LULESH-RANKED", build_lulesh_ranked},
};

}  // namespace

std::string require_app_name(std::string name, std::string_view flag) {
  for (const auto& b : kBuilders) {
    if (b.name == name) return name;
  }
  throw std::invalid_argument("--" + std::string(flag) + ": unknown app '" +
                              name + "'");
}

AppSpec build_app(const std::string& name) {
  for (const auto& b : kBuilders) {
    if (b.name == name) return b.build();
  }
  throw std::runtime_error("unknown app: " + name);
}

}  // namespace ft::apps
