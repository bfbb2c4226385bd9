#include "acl/table.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "util/bits.h"

namespace ft::acl {

std::string_view acl_event_kind_name(AclEventKind k) noexcept {
  switch (k) {
    case AclEventKind::Birth: return "birth";
    case AclEventKind::Rebirth: return "rebirth";
    case AclEventKind::KillOverwrite: return "kill-overwrite";
    case AclEventKind::KillDead: return "kill-dead";
    case AclEventKind::KillEndOfTrace: return "kill-end-of-trace";
  }
  return "?";
}

std::size_t AclSeries::births() const noexcept {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == AclEventKind::Birth) n++;
  }
  return n;
}

std::size_t AclSeries::kills(AclEventKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& e : events) {
    if (e.kind == kind) n++;
  }
  return n;
}

double error_magnitude(std::uint64_t clean_bits, std::uint64_t faulty_bits,
                       ir::Type t) {
  double clean = 0, faulty = 0;
  switch (t) {
    case ir::Type::F64:
      clean = util::bits_to_f64(clean_bits);
      faulty = util::bits_to_f64(faulty_bits);
      break;
    case ir::Type::F32:
      clean = static_cast<double>(util::bits_to_f32(clean_bits));
      faulty = static_cast<double>(util::bits_to_f32(faulty_bits));
      break;
    default:
      clean = static_cast<double>(static_cast<std::int64_t>(clean_bits));
      faulty = static_cast<double>(static_cast<std::int64_t>(faulty_bits));
      break;
  }
  if (clean == faulty) return 0.0;
  if (clean == 0.0) return std::numeric_limits<double>::infinity();
  return std::fabs(clean - faulty) / std::fabs(clean);
}

namespace {

struct CorruptInfo {
  std::uint64_t birth_index;
  std::uint64_t faulty_bits;
  std::uint64_t clean_bits;
  ir::Type type;
};

/// Shared forward sweep. `write_corrupt(i, record)` decides whether the
/// value committed by record i is corrupted; everything else (liveness,
/// kills, series) is identical between value-diff and taint modes.
/// The records are read through the TraceView cursor, which materializes
/// each one on the fly.
template <typename WriteCorruptFn, typename CleanBitsFn>
AclSeries sweep(const trace::TraceView& records,
                const trace::LocationEvents& events,
                const WriteCorruptFn& write_corrupt,
                const CleanBitsFn& clean_bits_of,
                std::unordered_map<vm::Location, CorruptInfo> corrupted,
                SweepInspector* inspector = nullptr) {
  AclSeries out;
  out.count.reserve(records.size());

  auto add_event = [&](const vm::DynInstr& r, vm::Location loc,
                       AclEventKind kind, const CorruptInfo& info) {
    AclEvent e;
    e.index = r.index;
    e.loc = loc;
    e.kind = kind;
    e.op = r.op;
    e.line = r.line;
    e.faulty_bits = info.faulty_bits;
    e.clean_bits = info.clean_bits;
    e.type = info.type;
    out.events.push_back(e);
  };

  const std::function<bool(vm::Location)> is_corrupted =
      [&corrupted](vm::Location l) { return corrupted.count(l) != 0; };

  // Kept for the end-of-trace kill events (the cursor's buffer is
  // transient, so the last record is copied out of the loop).
  vm::DynInstr last{};
  std::size_t i = 0;
  for (const vm::DynInstr& r : records) {
    // Verdict for this record's write (also consumed by the inspector; in
    // taint mode computing it advances the taint state, so compute once).
    const bool corrupt = write_corrupt(i, r);
    if (inspector) inspector->on_record(r, i, corrupt, is_corrupted);

    // Reads first: a corrupted location whose last-ever reference is this
    // read dies here (Fig. 3: death happens at the consuming instruction).
    for (unsigned k = 0; k < r.nops; ++k) {
      const vm::Location loc = r.op_loc[k];
      if (loc == vm::kNoLoc) continue;
      auto it = corrupted.find(loc);
      if (it == corrupted.end()) continue;
      if (!events.touched_after(loc, r.index)) {
        add_event(r, loc, AclEventKind::KillDead, it->second);
        corrupted.erase(it);
      }
    }

    // Then the write of this record (register def, memory store, or the
    // caller-side register committed by Ret).
    if (r.result_loc != vm::kNoLoc) {
      auto it = corrupted.find(r.result_loc);
      CorruptInfo info{r.index, r.result_bits, clean_bits_of(i), r.type};
      if (r.op == ir::Opcode::Store) info.type = r.op_type[0];
      if (corrupt) {
        if (it == corrupted.end()) {
          if (out.first_corruption_index == kNoIndex) {
            out.first_corruption_index = r.index;
          }
          add_event(r, r.result_loc, AclEventKind::Birth, info);
          corrupted.emplace(r.result_loc, info);
        } else {
          add_event(r, r.result_loc, AclEventKind::Rebirth, info);
          it->second = info;
        }
      } else if (it != corrupted.end()) {
        add_event(r, r.result_loc, AclEventKind::KillOverwrite, info);
        corrupted.erase(it);
      }
    }

    out.count.push_back(static_cast<std::uint32_t>(corrupted.size()));
    out.max_count = std::max(out.max_count, out.count.back());
    if (++i == records.size()) last = r;
  }

  // Locations still corrupted when the stream ends die at the last record
  // (Fig. 3's instruction N).
  if (!records.empty() && !corrupted.empty()) {
    for (const auto& [loc, info] : corrupted) {
      add_event(last, loc, AclEventKind::KillEndOfTrace, info);
    }
    out.count.back() = 0;
  }
  return out;
}

}  // namespace

AclSeries build_acl(const ColumnDiff& diff,
                    const trace::LocationEvents& events,
                    vm::Location seed_loc, std::uint64_t seed_index,
                    SweepInspector* inspector) {
  std::unordered_map<vm::Location, CorruptInfo> init;
  if (seed_loc != vm::kNoLoc) {
    init.emplace(seed_loc, CorruptInfo{seed_index, 0, 0, ir::Type::Void});
  }
  auto out = sweep(
      diff.records(), events,
      [&](std::size_t i, const vm::DynInstr&) { return bool(diff.differs[i]); },
      [&](std::size_t i) { return diff.clean_bits[i]; }, std::move(init),
      inspector);
  if (seed_loc != vm::kNoLoc) {
    out.first_corruption_index =
        std::min(out.first_corruption_index, seed_index);
  }
  return out;
}

AclSeries build_acl_taint(trace::TraceView records,
                          const trace::LocationEvents& events,
                          vm::Location seed, std::uint64_t seed_index) {
  // The taint set lives inside the write_corrupt closure: a write is corrupt
  // iff any operand location is tainted (or it is the seeding write).
  auto tainted = std::make_shared<std::unordered_set<vm::Location>>();
  tainted->insert(seed);
  auto write_corrupt = [tainted, seed, seed_index](std::size_t,
                                                   const vm::DynInstr& r) {
    bool corrupt = false;
    if (r.index == seed_index && r.result_loc == seed) corrupt = true;
    for (unsigned k = 0; k < r.nops && !corrupt; ++k) {
      if (r.op_loc[k] != vm::kNoLoc && tainted->count(r.op_loc[k])) {
        corrupt = true;
      }
    }
    if (corrupt) {
      tainted->insert(r.result_loc);
    } else {
      tainted->erase(r.result_loc);
    }
    return corrupt;
  };
  std::unordered_map<vm::Location, CorruptInfo> init;
  init.emplace(seed, CorruptInfo{seed_index, 0, 0, ir::Type::Void});
  auto out = sweep(records, events, write_corrupt,
                   [](std::size_t) { return std::uint64_t{0}; },
                   std::move(init));
  out.first_corruption_index = std::min(out.first_corruption_index, seed_index);
  return out;
}

}  // namespace ft::acl
