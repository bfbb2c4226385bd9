#include "trace/events.h"

#include <algorithm>
#include <bit>

namespace ft::trace {

// ---------------------------------------------------------------------------
// LocationSlots
// ---------------------------------------------------------------------------

void LocationSlots::rehash(std::size_t capacity) {
  std::vector<vm::Location> keys(capacity, vm::kNoLoc);
  std::vector<std::uint32_t> slots(capacity);
  keys_.swap(keys);
  slots_.swap(slots);
  mask_ = capacity - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(capacity));
  for (std::size_t j = 0; j < keys.size(); ++j) {
    if (keys[j] == vm::kNoLoc) continue;
    std::size_t i = home(keys[j]);
    while (keys_[i] != vm::kNoLoc) i = (i + 1) & mask_;
    keys_[i] = keys[j];
    slots_[i] = slots[j];
  }
}

// ---------------------------------------------------------------------------
// CSR build
// ---------------------------------------------------------------------------

/// `scan(emit)` walks the records in dynamic order and calls
/// emit(locations) once per record; index_of(i) is the dynamic index of the
/// i-th record.
template <class Scan, class IndexOf>
LocationEvents LocationEvents::build_from(std::size_t num_records,
                                          Scan&& scan, IndexOf&& index_of) {
  LocationEvents ev;
  // Count pass: assign dense slots, count per-location reads and writes,
  // and flatten every event to a 32-bit (slot, is_write) code plus a
  // per-record event count, so the fill pass needs no table probe and no
  // second decode. Locations repeat heavily in loops, so the distinct count
  // is a tiny fraction of the record count: the table starts small and
  // doubles, which keeps it cache-resident (a table sized from the record
  // count spilled out of L2 and doubled the cost of the pass).
  std::vector<std::uint32_t> codes;
  codes.reserve(num_records * 2);
  std::vector<std::uint8_t> per_record;
  per_record.reserve(num_records);
  std::vector<std::uint64_t> read_count, write_count;
  const auto slot_of = [&](vm::Location l) {
    bool inserted = false;
    const auto s = ev.slots_.insert(l, inserted);
    if (inserted) {
      read_count.push_back(0);
      write_count.push_back(0);
    }
    return s;
  };
  scan([&](const RecordLocations& r) {
    std::uint8_t n = 0;
    for (unsigned i = 0; i < r.nops; ++i) {
      if (r.op_loc[i] == vm::kNoLoc) continue;
      const auto s = slot_of(r.op_loc[i]);
      read_count[s]++;
      codes.push_back(s << 1);
      ++n;
    }
    if (r.result_loc != vm::kNoLoc) {
      const auto s = slot_of(r.result_loc);
      write_count[s]++;
      codes.push_back(s << 1 | 1);
      ++n;
    }
    per_record.push_back(n);
  });

  // Offsets by exclusive prefix sum; the fill reuses the count arrays as
  // write cursors.
  const std::size_t nloc = ev.slots_.size();
  ev.read_off_.assign(nloc + 1, 0);
  ev.write_off_.assign(nloc + 1, 0);
  for (std::size_t s = 0; s < nloc; ++s) {
    ev.read_off_[s + 1] = ev.read_off_[s] + read_count[s];
    ev.write_off_[s + 1] = ev.write_off_[s] + write_count[s];
    read_count[s] = ev.read_off_[s];
    write_count[s] = ev.write_off_[s];
  }
  ev.reads_.resize(ev.read_off_.back());
  ev.writes_.resize(ev.write_off_.back());

  // Fill pass over the flat events. Dynamic order leaves every span sorted.
  std::size_t c = 0;
  for (std::size_t r = 0; r < per_record.size(); ++r) {
    const std::uint64_t index = index_of(r);
    for (const std::size_t end = c + per_record[r]; c < end; ++c) {
      const std::uint32_t s = codes[c] >> 1;
      if (codes[c] & 1) {
        ev.writes_[write_count[s]++] = index;
      } else {
        ev.reads_[read_count[s]++] = index;
      }
    }
  }
  return ev;
}

LocationEvents LocationEvents::build(std::span<const vm::DynInstr> records) {
  return build_from(
      records.size(),
      [&](auto&& emit) {
        for (const vm::DynInstr& r : records) emit(RecordLocations::of(r));
      },
      [&](std::size_t i) { return records[i].index; });
}

LocationEvents LocationEvents::build(TraceView records) {
  // Record indices are rows.
  const std::uint64_t first = records.first_row();
  return build_from(
      records.size(),
      [&](auto&& emit) {
        records.scan_locations(
            [&](std::size_t, const vm::DecodedInstr&,
                const RecordLocations& locs) { emit(locs); });
      },
      [&](std::size_t i) { return first + i; });
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

namespace {
/// First index strictly greater than `index` in a sorted span, kNoIndex
/// when none.
std::uint64_t first_after(std::span<const std::uint64_t> seq,
                          std::uint64_t index) {
  const auto it = std::upper_bound(seq.begin(), seq.end(), index);
  return it == seq.end() ? LocationEvents::kNoIndex : *it;
}
}  // namespace

std::uint64_t LocationEvents::next_read_after(vm::Location l,
                                              std::uint64_t index) const {
  const auto s = slots_.find(l);
  return s == LocationSlots::kNone ? kNoIndex : first_after(reads_of(s), index);
}

std::uint64_t LocationEvents::next_write_after(vm::Location l,
                                               std::uint64_t index) const {
  const auto s = slots_.find(l);
  return s == LocationSlots::kNone ? kNoIndex
                                   : first_after(writes_of(s), index);
}

std::uint64_t LocationEvents::last_write_before(vm::Location l,
                                                std::uint64_t index) const {
  const auto s = slots_.find(l);
  if (s == LocationSlots::kNone) return kNoIndex;
  const auto writes = writes_of(s);
  const auto it = std::lower_bound(writes.begin(), writes.end(), index);
  return it == writes.begin() ? kNoIndex : *(it - 1);
}

bool LocationEvents::touched_after(vm::Location l, std::uint64_t index) const {
  const auto s = slots_.find(l);
  if (s == LocationSlots::kNone) return false;
  const auto reads = reads_of(s);
  const auto writes = writes_of(s);
  // Spans are sorted: anything after `index` shows in the last element.
  return (!reads.empty() && reads.back() > index) ||
         (!writes.empty() && writes.back() > index);
}

std::uint64_t LocationEvents::read_before_overwrite_after(
    vm::Location l, std::uint64_t index) const {
  const auto s = slots_.find(l);
  if (s == LocationSlots::kNone) return kNoIndex;
  const auto nr = first_after(reads_of(s), index);
  if (nr == kNoIndex) return kNoIndex;
  const auto nw = first_after(writes_of(s), index);
  // A write strictly before the read kills the value first. At equal
  // indices the read wins: one record consumes its operands before it
  // commits its result.
  return (nw != kNoIndex && nw < nr) ? kNoIndex : nr;
}

WriteStats LocationEvents::write_stats() const {
  WriteStats out;
  out.writes = writes_.size();
  for (std::uint32_t s = 0; s < slots_.size(); ++s) {
    const auto reads = reads_of(s);
    const auto writes = writes_of(s);
    if (writes.empty()) continue;
    out.overwrites += writes.size() - 1;  // all but the first write
    // Write i is live iff some read r has writes[i] < r <= writes[i + 1]
    // (the read wins a tie with the next write; the last write has no
    // bound). One merge: reads at or before a write can never make it live.
    std::size_t j = 0;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      while (j < reads.size() && reads[j] <= writes[i]) ++j;
      const bool live = j < reads.size() &&
                        (i + 1 == writes.size() || reads[j] <= writes[i + 1]);
      if (!live) ++out.dead_writes;
    }
  }
  return out;
}

}  // namespace ft::trace
