#include "trace/column.h"

namespace ft::trace {

using vm::SrcKind;

std::size_t ColumnTrace::extras_lower_bound(std::uint64_t row) const {
  const Extra* const extras = extras_col();
  std::size_t lo = 0, hi = num_extras();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (extras[mid].row < row) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void ColumnTrace::materialize(std::size_t row, vm::DynInstr& out) const {
  const vm::DecodedInstr& ins = prog_->code()[pc_col()[row]];
  out = vm::DynInstr{};
  out.index = row;
  out.func = ins.func;
  out.block = ins.block;
  out.instr = ins.instr;
  out.op = ins.op;
  out.pred = ins.pred;
  out.type = ins.type;
  out.line = ins.line;
  out.aux = ins.aux;

  const std::uint64_t* const results = result_bits_col();
  std::uint64_t load_value = results[row];
  RecordLocations locs;
  std::size_t esc = num_extras() == 0 ? 0 : extras_lower_bound(row);
  decode_locations(row, esc, locs, &load_value);
  out.nops = locs.nops;
  out.op_loc = locs.op_loc;
  out.result_loc = locs.result_loc;

  const vm::Src* const srcs = prog_->srcs() + ins.src_begin;
  const std::uint64_t* const pool = op_bits_col() + ops_offset_col()[row];
  if (ins.op == ir::Opcode::Load) {
    // The pool holds the pointer value; the loaded value is the result.
    const std::uint64_t ptr = pool[0];
    out.mem_addr = ptr;
    out.mem_size = store_size(ins.type);
    out.op_bits[0] = load_value;  // pre-flip loaded value (== result unless
                                  // the fault flipped this very load)
    out.op_type[0] = ins.type;
    out.op_bits[1] = ptr;
    out.op_type[1] = ir::Type::Ptr;
    out.result_bits = results[row];
    return;
  }

  const auto nrec = std::min<unsigned>(ins.src_count, vm::kMaxTracedOps);
  unsigned k = 0;
  for (unsigned i = 0; i < nrec; ++i) {
    const vm::Src& s = srcs[i];
    if (s.kind == SrcKind::None) continue;  // block/absent: slot stays empty
    out.op_bits[i] = pool[k++];
    out.op_type[i] = s.type;
  }

  switch (ins.op) {
    case ir::Opcode::Store:
      // The result column carries the committed (post-flip) bits; op slot 0
      // the stored value before any flip.
      out.mem_addr = out.op_bits[1];
      out.mem_size = store_size(srcs[0].type);
      out.result_bits = results[row];
      break;
    case ir::Opcode::CondBr:
      out.branch_taken = (out.op_bits[0] & 1) != 0;
      break;
    case ir::Opcode::Ret:
      if (out.result_loc != vm::kNoLoc) out.result_bits = results[row];
      break;
    case ir::Opcode::Emit:
    case ir::Opcode::EmitTrunc:
      // Emitted bits are exposed for differential comparison, no location.
      out.result_bits = results[row];
      break;
    case ir::Opcode::Call:
      break;  // the result is committed (and recorded) by the matching Ret
    default:
      if (ins.result != ir::kNoReg) out.result_bits = results[row];
      break;
  }
}

}  // namespace ft::trace
