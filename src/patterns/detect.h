// Fault-based pattern detection (§III-D, §VI).
//
// Runs the value-diff ACL sweep over a differential execution and watches
// it for the signatures of the six patterns:
//
//   DCL    — a corrupted location dies because it is never referenced again
//            (ACL KillDead events; the aggregation shape of Fig. 8);
//   RA     — an accumulation store (load-add-store to the same address)
//            commits a corrupted value whose error magnitude shrinks over
//            consecutive accumulations (Fig. 9 / Table II);
//   CS     — a comparison/select consumes a corrupted operand yet produces
//            the same boolean/selection as the fault-free run (Fig. 10);
//   Shift  — a shift consumes a corrupted operand but the corrupted bits
//            fall off: the result equals the fault-free value (Fig. 11);
//   Trunc  — a narrowing cast or truncated output formatting discards the
//            corrupted bits (the "%12.6e" case of Pattern 5);
//   DO     — a corrupted location is overwritten with a clean value
//            (ACL KillOverwrite events).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "acl/table.h"
#include "patterns/kinds.h"

namespace ft::patterns {

struct PatternInstanceInfo {
  PatternKind kind = PatternKind::DataOverwriting;
  std::uint64_t index = 0;  // dynamic instruction where the pattern acted
  vm::Location loc = vm::kNoLoc;
  std::uint32_t line = 0;
  ir::Opcode op = ir::Opcode::Br;
  double detail = 0.0;  // RA: error magnitude after this accumulation
};

struct PatternReport {
  std::array<std::size_t, kNumPatterns> counts{};
  std::vector<PatternInstanceInfo> instances;  // capped, for reporting
  acl::AclSeries acl;                          // the underlying ACL series

  [[nodiscard]] std::size_t count(PatternKind k) const noexcept {
    return counts[pattern_index(k)];
  }
  [[nodiscard]] bool found(PatternKind k) const noexcept {
    return count(k) > 0;
  }
  [[nodiscard]] bool any_found() const noexcept;
};

struct DetectOptions {
  /// Seed for region-input injections (the flipped word), vm::kNoLoc for
  /// result-bit injections.
  vm::Location seed_loc = vm::kNoLoc;
  std::uint64_t seed_index = 0;
  /// Keep at most this many concrete instances for reporting (counting is
  /// always exact).
  std::size_t max_instances = 4096;
  /// Require this many consecutive magnitude decreases before an
  /// accumulation chain counts as Repeated Additions.
  unsigned ra_min_decreases = 2;
};

/// Detect patterns over the usable prefix of a differential run.
/// `events` must be built over diff.records().
[[nodiscard]] PatternReport detect_patterns(const acl::ColumnDiff& diff,
                                            const trace::LocationEvents& events,
                                            const DetectOptions& opts = {});

}  // namespace ft::patterns
