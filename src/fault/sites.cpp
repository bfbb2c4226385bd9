#include "fault/sites.h"

#include "trace/collector.h"
#include "trace/events.h"

namespace ft::fault {

std::uint64_t SitePopulation::internal_bits() const {
  std::uint64_t n = 0;
  for (const auto& s : internal) n += s.width_bits;
  return n;
}

std::uint64_t SitePopulation::input_bits() const {
  std::uint64_t n = 0;
  for (const auto& s : input) n += std::uint64_t{8} * s.width_bytes;
  return n;
}

namespace {

/// Shared enumeration over either trace substrate; `tr` must expose size()
/// and slice(begin, end) over the full golden trace.
template <typename Trace>
SiteEnumerationResult enumerate_from_trace_impl(
    const Trace& tr, std::span<const trace::RegionInstance> instances,
    const trace::LocationEvents& events, std::uint32_t region_id,
    std::uint32_t instance) {
  SiteEnumerationResult out;
  out.sites.region_id = region_id;
  out.sites.instance = instance;
  out.fault_free_instructions = tr.size();

  const auto inst = trace::find_instance(instances, region_id, instance);
  if (!inst || !inst->complete) return out;
  out.region_found = true;
  out.region_entry_index = inst->enter_index;

  // Internal sites: every value committed inside the instance body.
  const auto slice = tr.slice(inst->body_begin(), inst->body_end());
  for (const vm::DynInstr& r : slice) {
    if (r.result_loc == vm::kNoLoc) continue;
    const ir::Type t = r.op == ir::Opcode::Store ? r.op_type[0] : r.type;
    const auto width = bit_width(t);
    if (width == 0) continue;
    out.sites.internal.push_back(InternalSite{r.index, width});
  }

  // Input sites: memory-resident inputs of the instance, flipped at entry.
  const auto io = regions::classify_io(slice, events, *inst);
  for (const auto& in : regions::memory_inputs(io)) {
    const auto width = store_size(in.type);
    if (width == 0) continue;
    out.sites.input.push_back(InputSite{vm::loc_address(in.loc), width});
  }
  return out;
}

}  // namespace

SiteEnumerationResult enumerate_sites_from_trace(
    const trace::Trace& tr, std::span<const trace::RegionInstance> instances,
    const trace::LocationEvents& events, std::uint32_t region_id,
    std::uint32_t instance) {
  return enumerate_from_trace_impl(tr, instances, events, region_id,
                                   instance);
}

SiteEnumerationResult enumerate_sites_from_trace(
    trace::TraceView tr, std::span<const trace::RegionInstance> instances,
    const trace::LocationEvents& events, std::uint32_t region_id,
    std::uint32_t instance) {
  return enumerate_from_trace_impl(tr, instances, events, region_id,
                                   instance);
}

SiteEnumerationResult enumerate_sites(const ir::Module& m,
                                      std::uint32_t region_id,
                                      std::uint32_t instance,
                                      const vm::VmOptions& base) {
  trace::TraceCollector collector;
  vm::VmOptions opts = base;
  opts.observer = &collector;
  opts.fault = vm::FaultPlan::none();
  const auto run = vm::Vm::run(m, opts);
  if (!run.completed()) {
    SiteEnumerationResult out;
    out.sites.region_id = region_id;
    out.sites.instance = instance;
    out.fault_free_instructions = run.instructions;
    return out;
  }

  const auto& tr = collector.trace();
  const auto instances = trace::segment_regions(tr.span());
  const auto events = trace::LocationEvents::build(tr.span());
  auto out = enumerate_sites_from_trace(tr, instances, events, region_id,
                                        instance);
  out.fault_free_instructions = run.instructions;
  return out;
}

SiteEnumerationResult enumerate_whole_program_sites(
    const trace::ColumnTrace& golden) {
  SiteEnumerationResult out;
  out.fault_free_instructions = golden.size();
  out.region_found = true;
  const vm::Src* const srcs = golden.program().srcs();
  golden.view().scan_locations([&](std::size_t row,
                                   const vm::DecodedInstr& ins,
                                   const trace::RecordLocations& locs) {
    if (locs.result_loc == vm::kNoLoc) return;
    // A Store commits its value operand (op slot 0); everything else its
    // result type.
    ir::Type t = ins.type;
    if (ins.op == ir::Opcode::Store) {
      const vm::Src& value = srcs[ins.src_begin];
      t = value.kind == vm::SrcKind::None ? ir::Type::Void : value.type;
    }
    const auto width = bit_width(t);
    if (width != 0) out.sites.internal.push_back(InternalSite{row, width});
  });
  return out;
}

SiteEnumerationResult enumerate_whole_program_sites(
    const vm::DecodedProgram& program, const vm::VmOptions& base) {
  // The trace only reads `program` during this call: a non-owning pointer.
  trace::ColumnTrace golden(std::shared_ptr<const vm::DecodedProgram>(
      std::shared_ptr<const vm::DecodedProgram>{}, &program));
  vm::VmOptions opts = base;
  opts.observer = nullptr;  // an observer would win over the sink
  opts.column_sink = &golden;
  opts.fault = vm::FaultPlan::none();
  const auto run = vm::Vm::run(program, opts);
  if (!run.completed()) {
    SiteEnumerationResult out;
    out.fault_free_instructions = run.instructions;
    return out;
  }
  return enumerate_whole_program_sites(golden);
}

SiteEnumerationResult enumerate_whole_program_sites(const ir::Module& m,
                                                    const vm::VmOptions& base) {
  return enumerate_whole_program_sites(vm::DecodedProgram::decode(m), base);
}

vm::FaultPlan plan_for_internal(const InternalSite& s, std::uint32_t bit) {
  return vm::FaultPlan::result_bit(s.dyn_index, bit % s.width_bits);
}

vm::FaultPlan plan_for_input(const SitePopulation& pop, const InputSite& s,
                             std::uint32_t bit) {
  return vm::FaultPlan::region_input_bit(pop.region_id, pop.instance,
                                         s.address, s.width_bytes,
                                         bit % (s.width_bytes * 8));
}

}  // namespace ft::fault
