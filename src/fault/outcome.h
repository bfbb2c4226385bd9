// Fault-manifestation classification (§II-A1): Verification Success,
// Verification Failed, Crashed (crashes and hangs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "vm/interp.h"

namespace ft::fault {

enum class Outcome : std::uint8_t {
  VerificationSuccess,
  VerificationFailed,
  Crashed,
  /// A hardening detector (ir::Opcode::CheckTrap) fired and the rollback
  /// re-execution completed with output that passes verification. By
  /// construction the recovered output is the fault-free one — the fault
  /// is transient and the re-execution runs clean from the checkpoint.
  DetectedRecovered,
  /// A detector fired but recovery was unavailable or the re-execution
  /// itself failed (trapped again, hung, or produced bad output).
  DetectedUnrecoverable,
};
inline constexpr std::size_t kNumOutcomes = 5;

[[nodiscard]] constexpr std::string_view outcome_name(Outcome o) noexcept {
  switch (o) {
    case Outcome::VerificationSuccess: return "verification-success";
    case Outcome::VerificationFailed: return "verification-failed";
    case Outcome::Crashed: return "crashed";
    case Outcome::DetectedRecovered: return "detected-recovered";
    case Outcome::DetectedUnrecoverable: return "detected-unrecoverable";
  }
  return "?";
}

/// Application verification phase: does the (possibly faulty) output pass
/// given the fault-free golden output? Bitwise-equal outputs always pass.
using Verifier = std::function<bool(const std::vector<vm::OutputValue>& got,
                                    const std::vector<vm::OutputValue>& golden)>;

/// Classify one faulty run against the golden output.
[[nodiscard]] Outcome classify_outcome(const vm::RunResult& faulty,
                                       const std::vector<vm::OutputValue>& golden,
                                       const Verifier& verify);

/// Standard verifier: element count must match and every floating output
/// must be within `rel_tol` relative error (or `abs_tol` near zero);
/// integer outputs must match exactly.
[[nodiscard]] Verifier tolerance_verifier(double rel_tol, double abs_tol = 1e-12);

}  // namespace ft::fault
