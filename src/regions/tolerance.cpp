#include "regions/tolerance.h"

#include <algorithm>

#include "acl/table.h"

namespace ft::regions {

std::string_view tolerance_name(ToleranceCase c) noexcept {
  switch (c) {
    case ToleranceCase::NotAffected: return "not-affected";
    case ToleranceCase::Case1Masked: return "case1-masked";
    case ToleranceCase::Case2Reduced: return "case2-reduced";
    case ToleranceCase::NotTolerant: return "not-tolerant";
    case ToleranceCase::Divergent: return "divergent";
  }
  return "?";
}

ToleranceReport classify_tolerance(const acl::ColumnDiff& diff,
                                   const trace::RegionInstance& inst,
                                   const RegionIo& io,
                                   std::uint64_t fault_index) {
  ToleranceReport rep;
  rep.fault_inside = fault_index != acl::kNoIndex &&
                     fault_index >= inst.enter_index &&
                     fault_index <= inst.exit_index;

  if (diff.diverged() && diff.divergence_index >= inst.enter_index &&
      diff.divergence_index <= inst.exit_index) {
    rep.verdict = ToleranceCase::Divergent;
    return rep;
  }

  const auto usable = diff.usable_records();
  auto record_ok = [&](std::uint64_t index) { return index < usable; };

  for (const auto& in : io.inputs) {
    if (!record_ok(in.index)) continue;
    // The matching fault-free operand value, from the golden row.
    const std::uint64_t clean =
        diff.golden->record(in.index).op_bits[in.op_slot];
    if (clean != in.bits) {
      rep.corrupted_inputs++;
      rep.max_input_error = std::max(
          rep.max_input_error, acl::error_magnitude(clean, in.bits, in.type));
    }
  }
  for (const auto& out : io.outputs) {
    if (!record_ok(out.index)) continue;
    if (diff.differs[out.index]) {
      rep.corrupted_outputs++;
      rep.max_output_error = std::max(
          rep.max_output_error,
          acl::error_magnitude(diff.clean_bits[out.index], out.bits,
                               out.type));
    }
  }

  const bool affected = rep.corrupted_inputs > 0 || rep.fault_inside;
  if (!affected && rep.corrupted_outputs == 0) {
    rep.verdict = ToleranceCase::NotAffected;
  } else if (rep.corrupted_outputs == 0) {
    rep.verdict = ToleranceCase::Case1Masked;
  } else if (rep.corrupted_inputs > 0 &&
             rep.max_output_error < rep.max_input_error) {
    rep.verdict = ToleranceCase::Case2Reduced;
  } else {
    rep.verdict = ToleranceCase::NotTolerant;
  }
  return rep;
}

}  // namespace ft::regions
