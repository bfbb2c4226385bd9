#include "acl/diff.h"

#include <algorithm>
#include <cassert>

namespace ft::acl {

namespace {

/// Register defs, memory stores, and emitted output values are comparable;
/// Emit/EmitTrunc carry the emitted bits in result_bits with no result
/// location.
bool comparable(ir::Opcode op, vm::Location result_loc) noexcept {
  return result_loc != vm::kNoLoc || op == ir::Opcode::Emit ||
         op == ir::Opcode::EmitTrunc;
}

/// The engine-agnostic lockstep core: both VMs are already constructed
/// (same program, clean vs faulty fault plan) and are stepped side by side.
void diff_between(vm::Vm& clean, vm::Vm& faulty, const DiffOptions& opts,
                  DiffResult& out) {
  if (opts.reserve_records != 0) {
    const auto n = opts.max_records != 0
                       ? std::min(opts.reserve_records, opts.max_records)
                       : opts.reserve_records;
    out.faulty.records.reserve(n);
    out.clean_bits.reserve(n);
    out.clean_op_bits.reserve(n);
    out.differs.reserve(n);
  }

  // Lockstep same-site check: with one shared decoded program the flat pc
  // identifies the static site; the legacy engine compares coordinates.
  const bool decoded = opts.base.program != nullptr;

  vm::DynInstr crec, frec;
  bool recording = true;
  while (clean.status() == vm::Vm::Status::Running &&
         faulty.status() == vm::Vm::Status::Running) {
    const std::uint32_t fpc = decoded ? faulty.next_pc() : 0;
    const std::uint32_t cpc = decoded ? clean.next_pc() : 0;
    const auto cs = clean.step(&crec);
    const auto fs = faulty.step(&frec);
    const bool clean_retired = cs != vm::Vm::Status::Trapped;
    const bool faulty_retired = fs != vm::Vm::Status::Trapped;
    if (!clean_retired || !faulty_retired) {
      // One side trapped mid-instruction: streams end here.
      if (!faulty_retired && out.divergence_index == kNoIndex) {
        out.divergence_index = frec.index;
      }
      break;
    }

    const bool same_site =
        decoded ? cpc == fpc
                : crec.func == frec.func && crec.block == frec.block &&
                      crec.instr == frec.instr && crec.op == frec.op;
    if (!same_site) {
      out.divergence_index = frec.index;
      break;
    }

    if (recording) {
      out.faulty.records.push_back(frec);
      out.clean_bits.push_back(crec.result_bits);
      out.clean_op_bits.push_back(crec.op_bits);
      out.differs.push_back(comparable(frec.op, frec.result_loc) &&
                            frec.result_bits != crec.result_bits);
      if (opts.max_records != 0 &&
          out.faulty.records.size() >= opts.max_records) {
        recording = false;
        out.truncated = true;
      }
    }

    // When the streams have finished in the same step, stop cleanly.
    if (cs == vm::Vm::Status::Finished || fs == vm::Vm::Status::Finished) {
      if ((cs == vm::Vm::Status::Finished) !=
          (fs == vm::Vm::Status::Finished)) {
        out.divergence_index = frec.index;
      }
      break;
    }
  }

  // Drive both runs to completion for outcome classification; past the
  // divergence (or trap) point there is nothing more to record.
  while (clean.status() == vm::Vm::Status::Running) clean.step(nullptr);
  while (faulty.status() == vm::Vm::Status::Running) faulty.step(nullptr);

  out.clean_result = clean.take_result();
  out.faulty_result = faulty.take_result();
}

std::pair<vm::VmOptions, vm::VmOptions> split_options(
    const DiffOptions& opts) {
  vm::VmOptions clean_opts = opts.base;
  clean_opts.observer = nullptr;
  clean_opts.column_sink = nullptr;
  clean_opts.fault = vm::FaultPlan::none();
  vm::VmOptions faulty_opts = clean_opts;
  faulty_opts.fault = opts.fault;
  return {clean_opts, faulty_opts};
}

/// Rows the traced faulty machine runs between two pc comparisons. After a
/// control-flow divergence at most one slice is traced in vain; the
/// run_until() call per slice is noise at this size.
constexpr std::uint64_t kSliceRows = std::uint64_t{1} << 13;

}  // namespace

DiffResult diff_run(const ir::Module& m, const DiffOptions& opts) {
  DiffOptions local = opts;
  local.base.program = nullptr;  // module overload stays on the legacy engine
  auto [clean_opts, faulty_opts] = split_options(local);
  vm::Vm clean(m, clean_opts);
  vm::Vm faulty(m, faulty_opts);
  DiffResult out;
  diff_between(clean, faulty, local, out);
  return out;
}

DiffResult diff_run(const vm::DecodedProgram& program,
                    const DiffOptions& opts) {
  DiffOptions local = opts;
  local.base.program = &program;
  auto [clean_opts, faulty_opts] = split_options(local);
  vm::Vm clean(program, clean_opts);
  vm::Vm faulty(program, faulty_opts);
  DiffResult out;
  diff_between(clean, faulty, local, out);
  return out;
}

ColumnDiff diff_against_golden(
    std::shared_ptr<const trace::ColumnTrace> golden,
    const vm::RunResult& golden_run, const DiffOptions& opts) {
  using Status = vm::Vm::Status;
  assert(golden && golden_run.completed() &&
         golden->size() == golden_run.instructions &&
         "the golden trace is a completed fault-free traced run");
  const auto& program = golden->program_ptr();
  const trace::ColumnTrace::RawColumns clean = golden->raw();
  const std::uint64_t rows = clean.rows;
  // Rows worth tracing: the faulty stream is compared with at most `rows`
  // golden rows and recorded up to the cap.
  const std::uint64_t traced_rows =
      opts.max_records != 0 ? std::min<std::uint64_t>(opts.max_records, rows)
                            : rows;

  ColumnDiff out;
  out.faulty = trace::ColumnTrace(program);
  out.faulty.reserve(traced_rows);
  vm::VmOptions faulty_opts = split_options(opts).second;
  faulty_opts.program = program.get();
  faulty_opts.column_sink = &out.faulty;
  vm::Vm faulty(*program, faulty_opts);

  // Traced phase: the first faulty row whose pc differs from the golden
  // pc is the control-flow divergence.
  std::uint64_t matched = 0;  // leading faulty rows on the golden path
  std::uint64_t mismatch = kNoIndex;
  while (faulty.status() == Status::Running && matched < traced_rows) {
    faulty.run_until(std::min(traced_rows, matched + kSliceRows));
    const std::uint32_t* const pc = out.faulty.raw().pc;
    const std::uint64_t n = out.faulty.size();
    while (matched < n && pc[matched] == clean.pc[matched]) ++matched;
    if (matched < n) {
      mismatch = matched;
      break;
    }
  }
  faulty.detach_column_sink();

  // Past the cap nothing is recorded, but the lockstep semantics still
  // look for the divergence: compare the pc of each next instruction.
  while (mismatch == kNoIndex && faulty.status() == Status::Running &&
         faulty.instructions_retired() < rows) {
    const std::uint64_t row = faulty.instructions_retired();
    if (faulty.next_pc() != clean.pc[row]) {
      mismatch = row;
      break;
    }
    faulty.step(nullptr);
  }

  // Where the streams part. Without a pc mismatch, the end of either run
  // decides: a trap at row F diverges at F (the trapping row is not
  // recorded); a side that finishes on a row where the other does not
  // diverges there, and that row stays recorded. (Equal pcs imply equal
  // call depths, so the last case only guards the lockstep semantics.)
  std::uint64_t usable = 0;
  if (mismatch != kNoIndex) {
    out.divergence_index = mismatch;
    usable = mismatch;
  } else {
    usable = faulty.instructions_retired();
    if (faulty.status() == Status::Trapped && usable < rows) {
      out.divergence_index = usable;
    } else if (faulty.status() != Status::Finished || usable < rows) {
      out.divergence_index = usable - 1;
    }
  }
  const std::uint64_t recorded =
      opts.max_records != 0 ? std::min<std::uint64_t>(usable, opts.max_records)
                            : usable;
  out.truncated = opts.max_records != 0 && usable >= opts.max_records;
  out.faulty.truncate_to(recorded);

  // The tail only decides the outcome: untraced, native when a JIT is set.
  out.faulty_result =
      faulty.status() == Status::Running ? faulty.run() : faulty.take_result();
  out.clean_result = golden_run;

  out.clean_bits = std::span<const std::uint64_t>(clean.result_bits, recorded);
  const std::uint64_t* const faulty_bits = out.faulty.raw().result_bits;
  out.differs.reserve(recorded);
  for (std::uint64_t row = 0; row < recorded; ++row) {
    // The location decode runs only on rows whose bits differ.
    out.differs.push_back(
        faulty_bits[row] != clean.result_bits[row] &&
        comparable(out.faulty.opcode_at(row),
                   out.faulty.locations(row).result_loc));
  }
  out.golden = std::move(golden);
  return out;
}

}  // namespace ft::acl
