// Test-only reference implementations of the golden-analysis passes.
//
// Each one is the straightforward per-record algorithm the library's
// columnar pass replaced; the equivalence tests pin the library against
// them bit for bit:
//  * LegacyLocationEvents — the map-of-vectors liveness index (one vector
//    of interleaved read/write events per location, linear scans);
//  * def_tracker_rates — the streaming pattern-rate scan: a DefTracker for
//    the accumulation chase, a set of written locations for overwrites and
//    one liveness query per write for dead writes;
//  * observer_whole_program_sites — whole-program internal sites collected
//    by an observer during an execution of their own;
//  * linear_pick / linear_sample_plans — width-weighted site selection by a
//    linear scan of the sites per trial;
//  * diff_run — the lockstep differential run: a clean and a faulty VM on
//    one decoded program stepped side by side, recording the faulty stream
//    as DynInstr records next to copies of the clean result and operand
//    bits (acl::diff_against_golden reads the clean side from the golden
//    trace instead).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "acl/diff.h"
#include "fault/campaign.h"
#include "fault/sites.h"
#include "patterns/def_tracker.h"
#include "patterns/rates.h"
#include "trace/collector.h"
#include "trace/events.h"
#include "util/bitset.h"
#include "util/rng.h"
#include "vm/interp.h"

namespace ft::oracle {

class LegacyLocationEvents {
 public:
  static constexpr std::uint64_t kNoIndex = ~std::uint64_t{0};

  static LegacyLocationEvents build(std::span<const vm::DynInstr> records) {
    LegacyLocationEvents ev;
    for (const auto& r : records) {
      for (unsigned i = 0; i < r.nops; ++i) {
        if (r.op_loc[i] != vm::kNoLoc) {
          ev.map_[r.op_loc[i]].push_back({r.index, /*is_write=*/false});
        }
      }
      if (r.result_loc != vm::kNoLoc) {
        ev.map_[r.result_loc].push_back({r.index, /*is_write=*/true});
      }
    }
    return ev;
  }

  [[nodiscard]] std::uint64_t next_read_after(vm::Location l,
                                              std::uint64_t index) const {
    return next_after(l, index, /*want_write=*/false);
  }
  [[nodiscard]] std::uint64_t next_write_after(vm::Location l,
                                               std::uint64_t index) const {
    return next_after(l, index, /*want_write=*/true);
  }
  [[nodiscard]] bool touched_after(vm::Location l, std::uint64_t index) const {
    const auto* evs = events(l);
    return evs && first_after(*evs, index) != evs->end();
  }
  /// The first event after `index` is a read (at equal indices reads are
  /// listed first: a record consumes its operands before it commits).
  [[nodiscard]] std::uint64_t read_before_overwrite_after(
      vm::Location l, std::uint64_t index) const {
    const auto* evs = events(l);
    if (!evs) return kNoIndex;
    const auto it = first_after(*evs, index);
    return it == evs->end() || it->is_write ? kNoIndex : it->index;
  }
  [[nodiscard]] std::uint64_t last_write_before(vm::Location l,
                                                std::uint64_t index) const {
    const auto* evs = events(l);
    if (!evs) return kNoIndex;
    std::uint64_t last = kNoIndex;
    for (const auto& e : *evs) {
      if (e.index >= index) break;
      if (e.is_write) last = e.index;
    }
    return last;
  }

  [[nodiscard]] std::size_t num_locations() const noexcept {
    return map_.size();
  }

 private:
  struct Event {
    std::uint64_t index;
    bool is_write;
  };

  [[nodiscard]] const std::vector<Event>* events(vm::Location l) const {
    const auto it = map_.find(l);
    return it == map_.end() ? nullptr : &it->second;
  }
  static std::vector<Event>::const_iterator first_after(
      const std::vector<Event>& evs, std::uint64_t index) {
    return std::upper_bound(
        evs.begin(), evs.end(), index,
        [](std::uint64_t v, const Event& e) { return v < e.index; });
  }
  [[nodiscard]] std::uint64_t next_after(vm::Location l, std::uint64_t index,
                                         bool want_write) const {
    const auto* evs = events(l);
    if (!evs) return kNoIndex;
    for (auto it = first_after(*evs, index); it != evs->end(); ++it) {
      if (it->is_write == want_write) return it->index;
    }
    return kNoIndex;
  }

  std::unordered_map<vm::Location, std::vector<Event>> map_;
};

/// Pattern rates by one streaming pass over materialized records. `events`
/// must index the same records (dead-write liveness queries).
inline patterns::PatternRates def_tracker_rates(
    std::span<const vm::DynInstr> records,
    const trace::LocationEvents& events) {
  using patterns::PatternKind;
  using patterns::pattern_index;
  patterns::PatternRates out;
  out.total_instructions = records.size();
  if (records.empty()) return out;

  std::uint64_t conditions = 0, shifts = 0, truncations = 0;
  std::uint64_t writes = 0, dead_writes = 0, overwrites = 0, accum = 0;
  patterns::DefTracker defs;
  std::unordered_set<vm::Location> written;
  for (const auto& r : records) {
    switch (r.op) {
      case ir::Opcode::ICmp:
      case ir::Opcode::FCmp:
      case ir::Opcode::Select:
      case ir::Opcode::CondBr:
        conditions++;
        break;
      case ir::Opcode::Shl:
      case ir::Opcode::LShr:
      case ir::Opcode::AShr:
        shifts++;
        break;
      case ir::Opcode::Trunc:
      case ir::Opcode::FPTrunc:
      case ir::Opcode::FPToSI:
      case ir::Opcode::EmitTrunc:
        truncations++;
        break;
      default:
        break;
    }
    if (r.op == ir::Opcode::Store && defs.is_accumulation_store(r)) accum++;
    if (r.result_loc != vm::kNoLoc) {
      writes++;
      if (!written.insert(r.result_loc).second) overwrites++;
      if (events.read_before_overwrite_after(r.result_loc, r.index) ==
          trace::LocationEvents::kNoIndex) {
        dead_writes++;
      }
    }
    defs.update(r);
  }

  const auto total = static_cast<double>(out.total_instructions);
  out.total_writes = writes;
  const double w = writes == 0 ? 1.0 : static_cast<double>(writes);
  out.rate[pattern_index(PatternKind::ConditionalStatement)] =
      static_cast<double>(conditions) / total;
  out.rate[pattern_index(PatternKind::Shifting)] =
      static_cast<double>(shifts) / total;
  out.rate[pattern_index(PatternKind::Truncation)] =
      static_cast<double>(truncations) / total;
  out.rate[pattern_index(PatternKind::DeadCorruptedLocations)] =
      static_cast<double>(dead_writes) / w;
  out.rate[pattern_index(PatternKind::RepeatedAdditions)] =
      static_cast<double>(accum) / total;
  out.rate[pattern_index(PatternKind::DataOverwriting)] =
      static_cast<double>(overwrites) / w;
  return out;
}

/// Whole-program internal sites from an observer on an execution of their
/// own (`exe` is an ir::Module or a vm::DecodedProgram).
template <typename Executable>
fault::SiteEnumerationResult observer_whole_program_sites(
    const Executable& exe, const vm::VmOptions& base) {
  struct SiteObserver final : vm::ExecObserver {
    std::vector<fault::InternalSite>* out = nullptr;
    void on_instruction(const vm::DynInstr& d) override {
      if (d.result_loc == vm::kNoLoc) return;
      const ir::Type t = d.op == ir::Opcode::Store ? d.op_type[0] : d.type;
      const auto width = bit_width(t);
      if (width != 0) out->push_back(fault::InternalSite{d.index, width});
    }
  };
  fault::SiteEnumerationResult out;
  SiteObserver obs;
  obs.out = &out.sites.internal;
  vm::VmOptions opts = base;
  opts.observer = &obs;
  opts.column_sink = nullptr;
  opts.fault = vm::FaultPlan::none();
  const auto run = vm::Vm::run(exe, opts);
  out.fault_free_instructions = run.instructions;
  out.region_found = run.completed();
  if (!run.completed()) out.sites.internal.clear();
  return out;
}

/// The site containing global bit offset `u` (sites weighted by width) and
/// the bit offset within it, by a linear scan; {nullptr, 0} past the end.
template <typename Site, typename WidthFn>
std::pair<const Site*, std::uint32_t> linear_pick(
    const std::vector<Site>& sites, std::uint64_t u, const WidthFn& width_of) {
  for (const auto& s : sites) {
    const std::uint64_t w = width_of(s);
    if (u < w) return {&s, static_cast<std::uint32_t>(u)};
    u -= w;
  }
  return {nullptr, 0};
}

/// fault::sample_plans with one linear pick per trial.
inline std::vector<vm::FaultPlan> linear_sample_plans(
    const fault::SiteEnumerationResult& sites, fault::TargetClass target,
    std::size_t trials, std::uint64_t seed) {
  std::vector<vm::FaultPlan> plans;
  util::Rng rng(seed);
  const auto& pop = sites.sites;
  if (target == fault::TargetClass::Internal) {
    const std::uint64_t total = pop.internal_bits();
    if (total == 0) return plans;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto [site, bit] = linear_pick(
          pop.internal, rng.below(total), [](const fault::InternalSite& s) {
            return std::uint64_t{s.width_bits};
          });
      if (site) plans.push_back(fault::plan_for_internal(*site, bit));
    }
  } else {
    const std::uint64_t total = pop.input_bits();
    if (total == 0) return plans;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto [site, bit] = linear_pick(
          pop.input, rng.below(total), [](const fault::InputSite& s) {
            return std::uint64_t{8} * s.width_bytes;
          });
      if (site) plans.push_back(fault::plan_for_input(pop, *site, bit));
    }
  }
  return plans;
}

/// The lockstep diff's result: acl::ColumnDiff's fields, with the faulty
/// stream as records and the clean side copied per record.
struct LockstepDiff {
  trace::Trace faulty;                     // faulty-run record stream
  std::vector<std::uint64_t> clean_bits;   // clean result bits per record
  std::vector<std::array<std::uint64_t, vm::kMaxTracedOps>> clean_op_bits;
  util::Bitset differs;                    // result differs at record i
  std::uint64_t divergence_index = acl::kNoIndex;
  bool truncated = false;                  // record cap reached
  vm::RunResult faulty_result;
  vm::RunResult clean_result;

  [[nodiscard]] bool diverged() const noexcept {
    return divergence_index != acl::kNoIndex;
  }
  [[nodiscard]] std::size_t usable_records() const noexcept {
    return clean_bits.size();
  }
};

/// acl::diff_against_golden by re-executing the clean run: both machines
/// retire one instruction per step until their pcs part, one traps, or one
/// finishes; then both run to completion for the outcomes.
inline LockstepDiff diff_run(const vm::DecodedProgram& program,
                             const acl::DiffOptions& opts) {
  using Status = vm::Vm::Status;
  vm::VmOptions clean_opts = opts.base;
  clean_opts.program = &program;
  clean_opts.observer = nullptr;
  clean_opts.column_sink = nullptr;
  clean_opts.fault = vm::FaultPlan::none();
  vm::VmOptions faulty_opts = clean_opts;
  faulty_opts.fault = opts.fault;
  vm::Vm clean(program, clean_opts);
  vm::Vm faulty(program, faulty_opts);

  LockstepDiff out;
  vm::DynInstr crec, frec;
  bool recording = true;
  while (clean.status() == Status::Running &&
         faulty.status() == Status::Running) {
    const std::uint32_t fpc = faulty.next_pc();
    const std::uint32_t cpc = clean.next_pc();
    const auto cs = clean.step(&crec);
    const auto fs = faulty.step(&frec);
    if (cs == Status::Trapped || fs == Status::Trapped) {
      // One side trapped mid-instruction: streams end here.
      if (fs == Status::Trapped && !out.diverged()) {
        out.divergence_index = frec.index;
      }
      break;
    }
    if (cpc != fpc) {
      out.divergence_index = frec.index;
      break;
    }
    if (recording) {
      // Register defs, memory stores and emitted values are comparable.
      const bool comparable = frec.result_loc != vm::kNoLoc ||
                              frec.op == ir::Opcode::Emit ||
                              frec.op == ir::Opcode::EmitTrunc;
      out.faulty.records.push_back(frec);
      out.clean_bits.push_back(crec.result_bits);
      out.clean_op_bits.push_back(crec.op_bits);
      out.differs.push_back(comparable &&
                            frec.result_bits != crec.result_bits);
      if (opts.max_records != 0 &&
          out.faulty.records.size() >= opts.max_records) {
        recording = false;
        out.truncated = true;
      }
    }
    // Streams that finish in the same step end cleanly.
    if (cs == Status::Finished || fs == Status::Finished) {
      if ((cs == Status::Finished) != (fs == Status::Finished)) {
        out.divergence_index = frec.index;
      }
      break;
    }
  }
  while (clean.status() == Status::Running) clean.step(nullptr);
  while (faulty.status() == Status::Running) faulty.step(nullptr);
  out.clean_result = clean.take_result();
  out.faulty_result = faulty.take_result();
  return out;
}

}  // namespace ft::oracle
