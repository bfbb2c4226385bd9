#include "reference.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace perfbench {

using ft::vm::kNoLoc;
using ft::vm::Location;

AclCounts reference_acl(const ft::acl::ColumnDiff& diff, Location seed_loc) {
  const auto records = diff.records();
  // Last index at which each location is read or written.
  std::unordered_map<Location, std::uint64_t> last_touch;
  for (const ft::vm::DynInstr& r : records) {
    for (unsigned k = 0; k < r.nops; ++k) {
      if (r.op_loc[k] != kNoLoc) last_touch[r.op_loc[k]] = r.index;
    }
    if (r.result_loc != kNoLoc) last_touch[r.result_loc] = r.index;
  }
  AclCounts out;
  std::unordered_set<Location> corrupted;
  if (seed_loc != kNoLoc) corrupted.insert(seed_loc);
  std::size_t pos = 0;
  for (const ft::vm::DynInstr& r : records) {
    for (unsigned k = 0; k < r.nops; ++k) {
      const Location loc = r.op_loc[k];
      if (loc == kNoLoc || !corrupted.count(loc)) continue;
      const auto it = last_touch.find(loc);
      if (it == last_touch.end() || it->second <= r.index) {
        ++out.kill_dead;
        corrupted.erase(loc);
      }
    }
    if (r.result_loc != kNoLoc) {
      const bool was = corrupted.count(r.result_loc) != 0;
      if (diff.differs[pos]) {
        if (was) {
          ++out.rebirths;
        } else {
          ++out.births;
          corrupted.insert(r.result_loc);
        }
      } else if (was) {
        ++out.kill_overwrite;
        corrupted.erase(r.result_loc);
      }
    }
    out.max_count =
        std::max(out.max_count, static_cast<std::uint32_t>(corrupted.size()));
    ++pos;
  }
  if (pos > 0) out.kill_end = corrupted.size();
  return out;
}

AclCounts acl_counts(const ft::acl::AclSeries& series) {
  using K = ft::acl::AclEventKind;
  AclCounts out;
  out.births = series.kills(K::Birth);
  out.rebirths = series.kills(K::Rebirth);
  out.kill_overwrite = series.kills(K::KillOverwrite);
  out.kill_dead = series.kills(K::KillDead);
  out.kill_end = series.kills(K::KillEndOfTrace);
  out.max_count = series.max_count;
  return out;
}

ft::patterns::PatternRates reference_rates(ft::trace::TraceView records) {
  using ft::ir::Opcode;
  std::uint64_t total = 0, conditions = 0, shifts = 0, truncations = 0;
  std::uint64_t writes = 0, overwrites = 0, dead = 0;
  std::unordered_set<Location> written;
  // Per location: is its latest write still waiting for a read?
  std::unordered_map<Location, bool> pending;
  for (const ft::vm::DynInstr& r : records) {
    ++total;
    switch (r.op) {
      case Opcode::ICmp:
      case Opcode::FCmp:
      case Opcode::Select:
      case Opcode::CondBr:
        ++conditions;
        break;
      case Opcode::Shl:
      case Opcode::LShr:
      case Opcode::AShr:
        ++shifts;
        break;
      case Opcode::Trunc:
      case Opcode::FPTrunc:
      case Opcode::FPToSI:
      case Opcode::EmitTrunc:
        ++truncations;
        break;
      default:
        break;
    }
    // Reads first: they make the previous write of their location live.
    for (unsigned k = 0; k < r.nops; ++k) {
      if (r.op_loc[k] == kNoLoc) continue;
      if (const auto it = pending.find(r.op_loc[k]); it != pending.end()) {
        it->second = false;
      }
    }
    if (r.result_loc != kNoLoc) {
      ++writes;
      if (!written.insert(r.result_loc).second) ++overwrites;
      auto [it, fresh] = pending.try_emplace(r.result_loc, true);
      if (!fresh) {
        if (it->second) ++dead;  // overwritten before any read
        it->second = true;
      }
    }
  }
  for (const auto& [loc, waiting] : pending) {
    if (waiting) ++dead;  // never read again
  }
  using ft::patterns::PatternKind;
  using ft::patterns::pattern_index;
  ft::patterns::PatternRates out;
  out.total_instructions = total;
  out.total_writes = writes;
  if (total == 0) return out;
  const auto t = static_cast<double>(total);
  const double w = writes == 0 ? 1.0 : static_cast<double>(writes);
  out.rate[pattern_index(PatternKind::ConditionalStatement)] =
      static_cast<double>(conditions) / t;
  out.rate[pattern_index(PatternKind::Shifting)] =
      static_cast<double>(shifts) / t;
  out.rate[pattern_index(PatternKind::Truncation)] =
      static_cast<double>(truncations) / t;
  out.rate[pattern_index(PatternKind::DeadCorruptedLocations)] =
      static_cast<double>(dead) / w;
  out.rate[pattern_index(PatternKind::DataOverwriting)] =
      static_cast<double>(overwrites) / w;
  return out;
}

}  // namespace perfbench
