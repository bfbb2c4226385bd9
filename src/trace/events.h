// Per-location event index: for every location touched by a trace, the
// ordered reads and writes of it. This is the "will this value be
// referenced again?" oracle behind the ACL table's liveness (§III-C) and
// the input/output classification of code regions (§III-B).
//
// LocationEvents is a flat CSR index built in one count-then-fill pass:
// locations map to dense slots through a flat open-addressing table, and
// each slot owns a contiguous span of a single sorted read-index array and
// a single sorted write-index array. Liveness queries (next_read_after /
// next_write_after / touched_after / read_before_overwrite_after /
// last_write_before) are then one probe of the table plus a binary search
// over the location's span. The columnar build reads the pc, activation,
// operand-pool and escape columns through ColumnTrace's location decoder,
// so no vm::DynInstr is built per row.
//
// tests/oracles.h keeps the old map-of-vectors builder as the query oracle
// of tests/column_trace_test.cpp and tests/golden_passes_test.cpp.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "trace/column.h"
#include "vm/observer.h"

namespace ft::trace {

/// Flat open-addressing map from location to dense slot id (linear
/// probing, power-of-two capacity, at most half full). vm::kNoLoc marks an
/// empty cell and is never a key.
class LocationSlots {
 public:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// Slot of `l`, kNone when absent.
  [[nodiscard]] std::uint32_t find(vm::Location l) const noexcept {
    if (keys_.empty() || l == vm::kNoLoc) return kNone;
    for (std::size_t i = home(l);; i = (i + 1) & mask_) {
      if (keys_[i] == l) return slots_[i];
      if (keys_[i] == vm::kNoLoc) return kNone;
    }
  }
  /// Slot of `l`, assigning the next dense id (size()) when absent;
  /// `inserted` reports which.
  std::uint32_t insert(vm::Location l, bool& inserted) {
    assert(l != vm::kNoLoc);
    if (2 * (size_ + 1) > keys_.size()) grow();
    for (std::size_t i = home(l);; i = (i + 1) & mask_) {
      if (keys_[i] == l) {
        inserted = false;
        return slots_[i];
      }
      if (keys_[i] == vm::kNoLoc) {
        keys_[i] = l;
        slots_[i] = static_cast<std::uint32_t>(size_);
        inserted = true;
        return static_cast<std::uint32_t>(size_++);
      }
    }
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  /// Fibonacci hashing: the top bits of the product mix both the register
  /// tag/activation bits and the word-aligned low bits of addresses.
  [[nodiscard]] std::size_t home(vm::Location l) const noexcept {
    return static_cast<std::size_t>((l * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  void rehash(std::size_t capacity);
  void grow() { rehash(keys_.empty() ? 64 : 2 * keys_.size()); }

  std::vector<vm::Location> keys_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
  std::size_t size_ = 0;
};

/// Write counts of a record stream, taken from the liveness index.
struct WriteStats {
  std::uint64_t writes = 0;      // records that write a location
  std::uint64_t overwrites = 0;  // writes to an already-written location
  /// Writes whose value is never read before the next write of the same
  /// location or the end of the trace (read_before_overwrite_after ==
  /// kNoIndex at the write's index).
  std::uint64_t dead_writes = 0;
};

class LocationEvents {
 public:
  /// Build the index from a record range. Reads are operand locations;
  /// writes are result locations (register defs and memory stores).
  static LocationEvents build(std::span<const vm::DynInstr> records);
  /// Columnar form: decodes the rows' locations straight from the columns.
  static LocationEvents build(TraceView records);

  /// Index of the first read of `l` strictly after `index`; kNoIndex if none.
  [[nodiscard]] std::uint64_t next_read_after(vm::Location l,
                                              std::uint64_t index) const;
  /// Index of the next write to `l` strictly after `index`; kNoIndex if none.
  [[nodiscard]] std::uint64_t next_write_after(vm::Location l,
                                               std::uint64_t index) const;
  /// True if `l` has any read strictly after `index`.
  [[nodiscard]] bool read_after(vm::Location l, std::uint64_t index) const {
    return next_read_after(l, index) != kNoIndex;
  }
  /// True if `l` has any event (read or write) strictly after `index`.
  [[nodiscard]] bool touched_after(vm::Location l, std::uint64_t index) const;

  /// First event index of `l` at or after `index` that is a read occurring
  /// before any intervening write ("value flows out"), kNoIndex otherwise.
  /// A read and a write at the same index order read-first (operands are
  /// consumed before the result commits).
  [[nodiscard]] std::uint64_t read_before_overwrite_after(
      vm::Location l, std::uint64_t index) const;

  /// Index of the last write of `l` strictly before `index`; kNoIndex if
  /// none. At a record's own index this names the record that defined `l`
  /// for it: the def-use state of a streaming pass at that point.
  [[nodiscard]] std::uint64_t last_write_before(vm::Location l,
                                                std::uint64_t index) const;

  /// Writes, overwrites and dead writes of the indexed records, from one
  /// merge over each location's read and write spans.
  [[nodiscard]] WriteStats write_stats() const;

  [[nodiscard]] std::size_t num_locations() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] std::size_t num_events() const noexcept {
    return reads_.size() + writes_.size();
  }

  static constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

 private:
  template <class Scan, class IndexOf>
  static LocationEvents build_from(std::size_t num_records, Scan&& scan,
                                   IndexOf&& index_of);

  [[nodiscard]] std::span<const std::uint64_t> reads_of(
      std::uint32_t s) const noexcept {
    return {reads_.data() + read_off_[s],
            static_cast<std::size_t>(read_off_[s + 1] - read_off_[s])};
  }
  [[nodiscard]] std::span<const std::uint64_t> writes_of(
      std::uint32_t s) const noexcept {
    return {writes_.data() + write_off_[s],
            static_cast<std::size_t>(write_off_[s + 1] - write_off_[s])};
  }

  LocationSlots slots_;  // loc -> dense id
  // CSR arrays: slot s owns reads_[read_off_[s], read_off_[s+1]) and
  // writes_[write_off_[s], write_off_[s+1]), each sorted by construction
  // (records are scanned in dynamic order).
  std::vector<std::uint64_t> read_off_;
  std::vector<std::uint64_t> write_off_;
  std::vector<std::uint64_t> reads_;
  std::vector<std::uint64_t> writes_;
};

}  // namespace ft::trace
