// Independent recomputations the correctness checks compare against. They
// are written here from the definitions in the library's headers, not by
// calling the code under test, and use plain data structures and single
// passes.
#pragma once

#include <cstdint>

#include "acl/diff.h"
#include "acl/table.h"
#include "patterns/rates.h"
#include "trace/column.h"

namespace perfbench {

/// Event totals of a value-diff ACL sweep.
struct AclCounts {
  std::size_t births = 0;
  std::size_t rebirths = 0;
  std::size_t kill_overwrite = 0;
  std::size_t kill_dead = 0;
  std::size_t kill_end = 0;
  std::uint32_t max_count = 0;

  bool operator==(const AclCounts&) const = default;
};

/// The value-diff ACL sweep by the death rules of src/acl/table.h, over the
/// lockstep prefix of `diff`: a write whose bits differ from the fault-free
/// run corrupts its location (birth, or rebirth when already corrupted); a
/// clean write to a corrupted location kills it (overwrite); a read of a
/// corrupted location that is never read or written again kills it (dead);
/// what is left at the end dies there. `seed_loc` starts corrupted.
[[nodiscard]] AclCounts reference_acl(const ft::acl::ColumnDiff& diff,
                                      ft::vm::Location seed_loc);

/// The same totals read off the library's series.
[[nodiscard]] AclCounts acl_counts(const ft::acl::AclSeries& series);

/// Condition, shift, truncation, dead-write and overwrite rates recounted
/// in one forward pass over fault-free records (src/patterns/rates.h
/// definitions: a write is dead when no read of its location follows
/// before the next write; a read and a write in one record read first).
[[nodiscard]] ft::patterns::PatternRates reference_rates(
    ft::trace::TraceView records);

}  // namespace perfbench
