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
// Two result substrates:
//  * DiffResult      — array-of-structs trace::Trace faulty stream; diff_run
//                      steps a clean and a faulty VM in lockstep. The module
//                      overload (the legacy-engine A/B reference) only
//                      produces this form. It is also the reference the
//                      columnar diff is pinned against.
//  * ColumnDiff      — columnar trace::ColumnTrace faulty stream, produced
//                      by diff_against_golden: the clean side is the
//                      already-traced golden run, so only the faulty program
//                      executes (traced through the direct-emit hot loop,
//                      its tail untraced). Same divergence semantics as
//                      diff_run; the ACL sweep and the pattern detectors
//                      consume it through TraceView without materializing
//                      records. This is what core::AnalysisSession::
//                      patterns_for runs on.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ir/module.h"
#include "trace/collector.h"
#include "trace/column.h"
#include "util/bitset.h"
#include "vm/fault_plan.h"
#include "vm/interp.h"

namespace ft::acl {

struct DiffOptions {
  vm::VmOptions base;     // seed / mpi / budget; observer & fault ignored
  vm::FaultPlan fault;    // the injection for the faulty run
  std::size_t max_records = 0;  // cap on materialized records (0 = no cap)
  /// Expected record count (e.g. the session's golden-trace size): diff_run's
  /// faulty stream and per-record clean columns reserve this up front
  /// instead of growing through a dozen reallocations.
  std::size_t reserve_records = 0;
};

inline constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

struct DiffResult {
  trace::Trace faulty;                     // faulty-run record stream
  std::vector<std::uint64_t> clean_bits;   // clean result bits per record
  // Clean operand bits per record (aligned with DynInstr::op_bits); lets
  // region-boundary analyses compare input values between the two runs.
  std::vector<std::array<std::uint64_t, vm::kMaxTracedOps>> clean_op_bits;
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
};

/// Columnar differential result: DiffResult's semantics with the faulty
/// stream on the columnar substrate (~4x smaller resident) and the clean
/// side read from the golden trace instead of copied.
struct ColumnDiff {
  trace::ColumnTrace faulty;
  /// The fault-free stream the faulty one was compared against; its first
  /// usable_records() rows are the clean records matching records().
  std::shared_ptr<const trace::ColumnTrace> golden;
  /// Clean result bits per usable record: a prefix of the golden trace's
  /// result column (kept alive by `golden`).
  std::span<const std::uint64_t> clean_bits;
  util::Bitset differs;
  std::uint64_t divergence_index = kNoIndex;
  bool truncated = false;
  vm::RunResult faulty_result;
  vm::RunResult clean_result;

  [[nodiscard]] bool diverged() const noexcept {
    return divergence_index != kNoIndex;
  }
  [[nodiscard]] std::size_t usable_records() const noexcept {
    return clean_bits.size();
  }
  /// The usable lockstep prefix as a zero-copy view.
  [[nodiscard]] trace::TraceView records() const noexcept {
    return faulty.view().prefix(usable_records());
  }
};

[[nodiscard]] DiffResult diff_run(const ir::Module& m, const DiffOptions& opts);

/// Same lockstep diff on the decoded engine: both VMs execute the shared
/// pre-decoded program, so callers that diff many plans against one module
/// (core::AnalysisSession) pay the decode cost once, not per diff. Results
/// are bit-identical to the module overload.
[[nodiscard]] DiffResult diff_run(const vm::DecodedProgram& program,
                                  const DiffOptions& opts);

/// Columnar diff against an already-traced fault-free run. Only the
/// faulty program executes: the direct-emit traced hot loop runs it in
/// bounded slices, each slice's pcs are compared with the golden pc
/// column, and at the divergence (or the record cap) the sink is detached
/// and the tail runs untraced — natively when opts.base.jit is set. Past
/// the cap, divergence detection goes on one untraced step at a time.
/// Results equal diff_run's on the same options (pinned by
/// tests/column_trace_test.cpp).
///
/// PRECONDITION: `golden` and `golden_run` are the completed fault-free
/// traced run of `golden->program()` under the same base options (seed,
/// budget, mpi) as `opts.base`. opts.reserve_records is not used: the
/// golden row count sizes the faulty stream.
[[nodiscard]] ColumnDiff diff_against_golden(
    std::shared_ptr<const trace::ColumnTrace> golden,
    const vm::RunResult& golden_run, const DiffOptions& opts);

}  // namespace ft::acl
