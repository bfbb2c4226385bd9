// Workload framework.
//
// Every benchmark from the paper's evaluation (§V-A: NAS CG/MG/IS/LU/BT/
// SP/DC/FT, Rodinia KMEANS, LULESH) is re-implemented as a MiniIR program
// behind this common interface. Scales are reduced so that thousand-run
// fault campaigns finish on a laptop-class container, but each program
// preserves the loop/region structure, operator mix and verification phase
// of the original — several regions are direct transcriptions of the
// paper's own code excerpts (Figs. 8-13).
//
// Output protocol (per program):
//   outputs[0]  = i64 verification flag computed by the program's own
//                 verification phase (1 = pass) — this is where the paper
//                 finds Conditional Statement patterns in MG/CG;
//   outputs[1..n-2] = payload values checked by the host-side Verifier;
//   outputs[n-1] = f64 reference scalar, used to bake golden constants.
//
// Golden baking: NAS benchmarks verify against hardcoded reference values.
// We reproduce that with a two-phase build — build with a NaN placeholder,
// run fault-free, then rebuild with the measured reference baked into the
// program's verification phase (bake()).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/outcome.h"
#include "ir/module.h"
#include "vm/interp.h"

namespace ft::apps {

struct RegionDesc {
  std::uint32_t id = 0;
  std::string name;
  std::uint32_t line_begin = 0;
  std::uint32_t line_end = 0;
};

struct AppSpec {
  std::string name;
  ir::Module module{"?"};
  /// The paper-style analysis regions (cg_a..cg_e, mg_a..mg_d, ...).
  std::vector<RegionDesc> analysis_regions;
  /// Region wrapping one main-loop iteration (for the Fig. 6 experiment).
  std::uint32_t main_region = ~std::uint32_t{0};
  int main_iters = 0;
  double verify_rel_tol = 1e-6;
  fault::Verifier verifier;
  vm::VmOptions base;

  [[nodiscard]] const RegionDesc* find_region(std::string_view rname) const {
    for (const auto& r : analysis_regions) {
      if (r.name == rname) return &r;
    }
    return nullptr;
  }
};

/// Standard verifier for the output protocol above.
[[nodiscard]] fault::Verifier standard_verifier(double rel_tol);

/// Two-phase golden baking: `build(ref)` must produce the app; it is called
/// once with quiet-NaN, run fault-free, and called again with the measured
/// reference scalar (the last output). Aborts if the draft run fails.
[[nodiscard]] AppSpec bake(const std::function<AppSpec(double)>& build);

// --- the ten workloads + hardened CG variants (Use Case 1) -----------------
[[nodiscard]] AppSpec build_cg();
[[nodiscard]] AppSpec build_mg();
[[nodiscard]] AppSpec build_is();
[[nodiscard]] AppSpec build_kmeans();
[[nodiscard]] AppSpec build_lulesh();
[[nodiscard]] AppSpec build_lu();
[[nodiscard]] AppSpec build_bt();
[[nodiscard]] AppSpec build_sp();
[[nodiscard]] AppSpec build_dc();
[[nodiscard]] AppSpec build_ft();

// --- rank-decomposed variants (cross-rank campaigns) -------------------------
// The decomposition is read from mpi_rank()/mpi_size() at runtime: one
// module serves any world size, and a single-rank (null-endpoint) run
// degenerates to the full serial problem — which is exactly the serial
// baseline the serial-vs-parallel resilience comparison (Wu et al.) needs.
// Registry names: "CG-RANKED", "MG-RANKED", "LULESH-RANKED".
[[nodiscard]] AppSpec build_cg_ranked();      // row blocks + allreduced dots
[[nodiscard]] AppSpec build_mg_ranked();      // plane slabs + halo exchange
[[nodiscard]] AppSpec build_lulesh_ranked();  // element blocks + force assembly

/// Use Case 1 (§VII-A): CG with resilience patterns applied.
struct CgHardening {
  bool dcl_overwrite = false;  // Fig. 12: temp arrays in sprnvc + copy-back
  bool truncation = false;     // Fig. 13: 32-bit window in the p·q loop
};
[[nodiscard]] AppSpec build_cg_hardened(const CgHardening& h);

/// Registry over all ten paper benchmarks, in Table IV order.
[[nodiscard]] const std::vector<std::string>& all_app_names();
/// Build one application by registry name: the ten above or a `*-RANKED`
/// variant. Throws std::runtime_error for any other name.
[[nodiscard]] AppSpec build_app(const std::string& name);
/// `name` itself when build_app accepts it; otherwise throws
/// std::invalid_argument naming the command-line flag `flag` it came from.
[[nodiscard]] std::string require_app_name(std::string name,
                                           std::string_view flag);

}  // namespace ft::apps
