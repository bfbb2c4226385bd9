// Differential execution.
//
// FlipTracker's analyses compare a faulty run against a matching fault-free
// run (§III-D: "we compare the values of input and output locations ...
// between faulty and fault-free runs"). Because the VM is deterministic, the
// two instruction streams are identical record-by-record until either the
// fault alters control flow (a corrupted branch) or the faulty run traps.
// A diff records the faulty stream, the matching clean result values, and
// the first divergence point if any.
//
// The clean side is an already-traced golden run (the one
// core::AnalysisSession caches), so diff_against_golden executes only the
// faulty program: traced through the direct-emit hot loop up to the
// divergence or the record cap, its tail untraced. The faulty stream is a
// columnar trace::ColumnTrace; the ACL sweep, the pattern detectors and the
// region tolerance classifier read it through TraceView and read clean
// values from the golden rows, so no record is materialized up front and no
// clean value is copied. The lockstep reference (a clean and a faulty VM
// stepped side by side) lives in tests/oracles.h, which pins this diff to it.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "trace/column.h"
#include "util/bitset.h"
#include "vm/fault_plan.h"
#include "vm/interp.h"

namespace ft::acl {

struct DiffOptions {
  vm::VmOptions base;     // seed / mpi / budget; observer & fault ignored
  vm::FaultPlan fault;    // the injection for the faulty run
  std::size_t max_records = 0;  // cap on recorded rows (0 = no cap)
};

inline constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

/// A differential run: the faulty stream on the columnar substrate and the
/// clean side read from the golden trace instead of copied.
struct ColumnDiff {
  trace::ColumnTrace faulty;  // faulty-run stream, one row per usable record
  /// The fault-free stream the faulty one was compared against; its first
  /// usable_records() rows are the clean records matching records().
  std::shared_ptr<const trace::ColumnTrace> golden;
  /// Clean result bits per usable record: a prefix of the golden trace's
  /// result column (kept alive by `golden`).
  std::span<const std::uint64_t> clean_bits;
  util::Bitset differs;                    // result differs at record i
  std::uint64_t divergence_index = kNoIndex;  // first control-flow divergence
  bool truncated = false;                  // record cap reached
  vm::RunResult faulty_result;             // full-run outcomes (always valid)
  vm::RunResult clean_result;

  [[nodiscard]] bool diverged() const noexcept {
    return divergence_index != kNoIndex;
  }
  /// Records in [0, usable_records()) have trustworthy clean/differs data.
  [[nodiscard]] std::size_t usable_records() const noexcept {
    return clean_bits.size();
  }
  /// The usable prefix (the rows on the golden path) as a zero-copy view.
  [[nodiscard]] trace::TraceView records() const noexcept {
    return faulty.view().prefix(usable_records());
  }
};

/// Diff against an already-traced fault-free run. Only the faulty program
/// executes: the direct-emit traced hot loop runs it in bounded slices,
/// each slice's pcs are compared with the golden pc column, and at the
/// divergence (or the record cap) the sink is detached and the tail runs
/// untraced — natively when opts.base.jit is set. Past the cap, divergence
/// detection goes on one untraced step at a time. Results equal the
/// lockstep reference's on the same options (pinned by
/// tests/column_trace_test.cpp).
///
/// PRECONDITION: `golden` and `golden_run` are the completed fault-free
/// traced run of `golden->program()` under the same base options (seed,
/// budget, mpi) as `opts.base`.
[[nodiscard]] ColumnDiff diff_against_golden(
    std::shared_ptr<const trace::ColumnTrace> golden,
    const vm::RunResult& golden_run, const DiffOptions& opts);

}  // namespace ft::acl
