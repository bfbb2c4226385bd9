#include "patterns/rates.h"

#include <vector>

namespace ft::patterns {

namespace {

/// Opcode classes counted per record (the structural rates).
struct OpcodeCounts {
  std::uint64_t conditions = 0, shifts = 0, truncations = 0;

  void add(ir::Opcode op, std::uint64_t n) {
    switch (op) {
      case ir::Opcode::ICmp:
      case ir::Opcode::FCmp:
      case ir::Opcode::Select:
      case ir::Opcode::CondBr:
        conditions += n;
        break;
      case ir::Opcode::Shl:
      case ir::Opcode::LShr:
      case ir::Opcode::AShr:
        shifts += n;
        break;
      case ir::Opcode::Trunc:
      case ir::Opcode::FPTrunc:
      case ir::Opcode::FPToSI:
      case ir::Opcode::EmitTrunc:
        truncations += n;
        break;
      default:
        break;
    }
  }
};

constexpr bool is_add(ir::Opcode op) {
  return op == ir::Opcode::FAdd || op == ir::Opcode::Add;
}

/// Repeated Additions shape: does `store` commit `load(addr) (+|fadd) ...`
/// back to the same address (paper Fig. 9: the MG smoother
/// u[i3][i2][i1] = u[i3][i2][i1] + c[0]*r[...] + ...)? Multi-term
/// accumulations are chains of adds, so the chase descends through add
/// operands (bounded depth) looking for the reload of the address. Every
/// level asks for the last write strictly before the store, the def-use
/// state of a streaming pass at the store. `record_at(index)` returns the
/// RecordLocations of the record with that index.
template <class RecordAt>
class AccumulationChase {
 public:
  AccumulationChase(const trace::LocationEvents& events, RecordAt record_at)
      : events_(events), record_at_(record_at) {}

  bool is_accumulation_store(const trace::RecordLocations& store,
                             std::uint64_t index) const {
    // A Store writes the memory cell of its address: result_loc == address.
    if (store.result_loc == vm::kNoLoc) return false;
    const auto def = events_.last_write_before(store.op_loc[0], index);
    if (def == trace::LocationEvents::kNoIndex) return false;
    const auto add = record_at_(def);
    if (!is_add(add.op)) return false;
    return chain_loads_from(add, store.result_loc, index, /*depth=*/8);
  }

 private:
  bool chain_loads_from(const trace::RecordLocations& add,
                        vm::Location addr, std::uint64_t before,
                        int depth) const {
    for (unsigned k = 0; k < add.nops; ++k) {
      const auto def = events_.last_write_before(add.op_loc[k], before);
      if (def == trace::LocationEvents::kNoIndex) continue;
      const auto src = record_at_(def);
      // A Load reads the memory cell of its address: op_loc[0].
      if (src.op == ir::Opcode::Load && src.op_loc[0] == addr) return true;
      if (depth > 0 && is_add(src.op) &&
          chain_loads_from(src, addr, before, depth - 1)) {
        return true;
      }
    }
    return false;
  }

  const trace::LocationEvents& events_;
  RecordAt record_at_;
};

PatternRates finish(std::uint64_t total_instructions, const OpcodeCounts& ops,
                    std::uint64_t accumulations,
                    const trace::LocationEvents& events) {
  PatternRates out;
  out.total_instructions = total_instructions;
  if (total_instructions == 0) return out;
  const auto ws = events.write_stats();
  const auto total = static_cast<double>(total_instructions);
  out.total_writes = ws.writes;
  const double w = ws.writes == 0 ? 1.0 : static_cast<double>(ws.writes);
  out.rate[pattern_index(PatternKind::ConditionalStatement)] =
      static_cast<double>(ops.conditions) / total;
  out.rate[pattern_index(PatternKind::Shifting)] =
      static_cast<double>(ops.shifts) / total;
  out.rate[pattern_index(PatternKind::Truncation)] =
      static_cast<double>(ops.truncations) / total;
  out.rate[pattern_index(PatternKind::DeadCorruptedLocations)] =
      static_cast<double>(ws.dead_writes) / w;
  out.rate[pattern_index(PatternKind::RepeatedAdditions)] =
      static_cast<double>(accumulations) / total;
  out.rate[pattern_index(PatternKind::DataOverwriting)] =
      static_cast<double>(ws.overwrites) / w;
  return out;
}

}  // namespace

PatternRates measure_rates(std::span<const vm::DynInstr> records,
                           const trace::LocationEvents& events) {
  if (records.empty()) return {};
  const std::uint64_t base = records.front().index;
  const AccumulationChase chase(events, [&](std::uint64_t index) {
    return trace::RecordLocations::of(records[index - base]);
  });
  OpcodeCounts ops;
  std::uint64_t accumulations = 0;
  for (const vm::DynInstr& r : records) {
    ops.add(r.op, 1);
    if (r.op == ir::Opcode::Store &&
        chase.is_accumulation_store(trace::RecordLocations::of(r), r.index)) {
      ++accumulations;
    }
  }
  return finish(records.size(), ops, accumulations, events);
}

PatternRates measure_rates(trace::TraceView records,
                           const trace::LocationEvents& events) {
  if (records.empty()) return {};
  const trace::ColumnTrace& tr = records.trace();
  const auto raw = tr.raw();
  const vm::DecodedInstr* const code = tr.program().code();
  // Opcode classes come from a per-pc histogram of the pc column; only
  // Store rows decode their locations.
  std::vector<std::uint64_t> per_pc(tr.program().code_size(), 0);
  const AccumulationChase chase(
      events, [&](std::uint64_t index) { return tr.locations(index); });
  std::uint64_t accumulations = 0;
  const std::size_t end = records.first_row() + records.size();
  for (std::size_t row = records.first_row(); row < end; ++row) {
    const std::uint32_t pc = raw.pc[row];
    ++per_pc[pc];
    if (code[pc].op == ir::Opcode::Store &&
        chase.is_accumulation_store(tr.locations(row), row)) {
      ++accumulations;
    }
  }
  OpcodeCounts ops;
  for (std::size_t pc = 0; pc < per_pc.size(); ++pc) {
    if (per_pc[pc] != 0) ops.add(code[pc].op, per_pc[pc]);
  }
  return finish(records.size(), ops, accumulations, events);
}

}  // namespace ft::patterns
