/// @file
/// The MiniIR interpreter.
///
/// One Vm executes one module deterministically: same module + same options
/// (seed, fault plan) => bit-identical instruction stream. Determinism is
/// what lets FlipTracker match faulty runs against fault-free runs
/// record-by-record (the paper relies on record-and-replay for this, §V-B;
/// our VM is deterministic by construction).
///
/// Two execution engines, bit-identical by construction and pinned so by
/// tests/decode_test.cpp:
///   * decoded — constructed from a vm::DecodedProgram (vm/decode.h): flat
///     pre-resolved instruction stream dispatched over a dense-opcode jump
///     table, with one contiguous register/argument stack shared by all
///     frames (no per-frame heap allocation). This is the hot engine every
///     campaign trial runs on; decode once per program, execute thousands
///     of times.
///   * legacy — constructed from an ir::Module directly: walks the nested
///     ir::Instruction/ir::Operand representation. Kept as the reference
///     implementation and the A/B baseline for the decoded engine.
///
/// Three driving styles:
///   * Vm::run()  — run to completion. With VmOptions::column_sink set (and
///                  no observer), the decoded hot loop appends every record
///                  directly into the columnar trace — no DynInstr, no
///                  virtual dispatch. With an observer, records stream
///                  through the ExecObserver hook (the gating/selective
///                  path). With neither, nothing is materialized (the
///                  campaign fast path).
///   * Vm::step() — retire one instruction at a time; the golden-backed
///                  diff (src/acl/) steps its faulty run untraced past the
///                  record cap to look for the control-flow divergence.
///   * Vm::run_until() — run the decoded hot loop up to a target retired
///                  count and stop with the machine still Running. Paired
///                  with save()/restore()/fork_from() (Vm::Snapshot) this
///                  is what the snapshot-forked campaign scheduler
///                  (src/fault/) builds on: execute the golden prefix
///                  once (a cursor machine, resumed site to site, never
///                  from zero) and fork every injection trial at exactly
///                  its site instead of replaying the prefix.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ir/module.h"
#include "util/rng.h"
#include "vm/decode.h"
#include "vm/fault_plan.h"
#include "vm/mpi_endpoint.h"
#include "vm/observer.h"
#include "vm/trap.h"

namespace ft::trace {
class ColumnTrace;
}  // namespace ft::trace

namespace ft::jit {
class JitProgram;
struct VmAccess;
}  // namespace ft::jit

namespace ft::vm {

struct OutputValue {
  std::uint64_t bits = 0;
  ir::Type type = ir::Type::F64;

  [[nodiscard]] double as_f64() const noexcept;
  [[nodiscard]] std::int64_t as_i64() const noexcept;

  bool operator==(const OutputValue&) const = default;
};

struct VmOptions {
  std::uint64_t max_instructions = std::uint64_t{1} << 31;
  double rand_seed = 314159265.0;  // NAS randlc default
  ExecObserver* observer = nullptr;
  FaultPlan fault{};
  MpiEndpoint* mpi = nullptr;
  std::uint32_t max_call_depth = 256;
  /// When set, the Vm executes this pre-decoded form of the module instead
  /// of walking the IR (the Vm(const DecodedProgram&, ...) constructor
  /// fills it in). Must be decoded from the module being run.
  const DecodedProgram* program = nullptr;
  /// When set (decoded engine only, must be empty, built over the same
  /// program), run() executes the direct-emit hot loop: every retired
  /// record is appended straight into the columnar trace — no DynInstr is
  /// materialized and no observer dispatch runs. Ignored when an observer
  /// is also set (the observer path keeps gating/streaming semantics).
  trace::ColumnTrace* column_sink = nullptr;
  /// Track which memory pages the machine writes (decoded engine): enables
  /// the incremental state transfers of the campaign scheduler —
  /// Vm::restore_dirty() (re-restore a snapshot copying only the pages
  /// dirtied since) and Vm::fork_from() (sync a trial machine to the
  /// golden cursor through the union of both machines' dirty pages).
  /// Costs a couple of ALU ops per retired Store.
  bool track_writes = false;
  /// When set (decoded engine, untraced runs only), run()/run_until()
  /// execute natively through this pre-compiled form of the program instead
  /// of the interpreter hot loop — golden-cursor advances, trial tails and
  /// convergence probes all go native. Must be compiled from the same
  /// DecodedProgram the Vm executes, and must outlive the Vm. Ignored on
  /// observer/column-sink runs (those need per-instruction recording) and
  /// when `count_opcodes` is set. The machine state layout is shared with
  /// the interpreter, so snapshots, fork_from() and run_until() stop marks
  /// behave identically; tests/engine_fuzz_test.cpp pins the equivalence.
  const jit::JitProgram* jit = nullptr;
  /// Count per-opcode dynamic dispatches in the decoded interpreter
  /// (Vm::opcode_counts()). Forces the interpreter even when `jit` is set —
  /// the counters are how the JIT's opcode coverage is ranked by
  /// retired-instruction share (core/analysis.h reports them per app).
  bool count_opcodes = false;
};

struct RunResult {
  TrapKind trap = TrapKind::None;
  std::uint64_t instructions = 0;
  bool fault_fired = false;
  std::vector<OutputValue> outputs;

  [[nodiscard]] bool completed() const noexcept {
    return trap == TrapKind::None;
  }
};

class Vm {
 public:
  enum class Status : std::uint8_t { Running, Finished, Trapped };

  /// A deep copy of the decoded engine's machine state mid-run (defined
  /// after the class; it names private frame types). See save()/restore().
  struct Snapshot;

  /// The module must outlive the Vm and must be laid out (Module::layout(),
  /// done by ProgramBuilder::finish()). Runs the legacy tree-walking engine
  /// unless `opts.program` carries a decoded form of `m`.
  explicit Vm(const ir::Module& m, VmOptions opts = {});

  /// Execute the decoded engine over `p` (which must outlive the Vm, as
  /// must the module it was decoded from).
  explicit Vm(const DecodedProgram& p, VmOptions opts = {});

  /// Construct the decoded engine directly in a snapshotted state: cheaper
  /// than construct-then-restore() because the golden memory image is never
  /// zeroed and re-initialized first (one full-image write per campaign
  /// trial on the snapshot-forked path). The snapshot must come from a Vm
  /// over the same program.
  Vm(const DecodedProgram& p, const Snapshot& s, VmOptions opts = {});

  /// Retire one instruction. If `out` is non-null it receives the dynamic
  /// record of the retired instruction (unset when the instruction trapped).
  Status step(DynInstr* out);

  /// Run to completion (or trap), feeding opts.observer if present.
  RunResult run();

  /// One-shot conveniences.
  static RunResult run(const ir::Module& m, VmOptions opts = {});
  static RunResult run(const DecodedProgram& p, VmOptions opts = {});

  // --- snapshot / resume (decoded engine only) -------------------------------
  /// Run the decoded hot loop until `target` instructions have retired in
  /// total (n_retired() == target), the program finishes/traps, or the
  /// hang budget (VmOptions::max_instructions) classifies the run as hung.
  /// Stopping at the target leaves status() == Running; calling again (or
  /// run()) resumes exactly where execution stopped. Honors an attached
  /// column sink; incompatible with an observer.
  void run_until(std::uint64_t target);

  /// Stop recording on a paused machine: the attached column sink keeps
  /// exactly the rows retired so far, and later runs take the untraced
  /// paths (natively when VmOptions::jit is set). The golden-backed diff
  /// (src/acl/) traces a faulty run up to its divergence and finishes it
  /// this way.
  void detach_column_sink() noexcept { opts_.column_sink = nullptr; }

  /// Deep-copy the full machine state (memory image, frame stack, live
  /// register/argument slots, stack pointer, RNG, outputs, region counts,
  /// retired count) into `out`, reusing its buffers. Everything execution
  /// depends on is captured: restore() followed by any run is bit-identical
  /// to an execution that never snapshotted (pinned by
  /// tests/snapshot_test.cpp).
  void save(Snapshot& out) const;
  [[nodiscard]] Snapshot snapshot() const;

  /// Overwrite the machine state with `s` (taken from a Vm over the same
  /// decoded program with the same options). The fault plan is NOT part of
  /// the snapshot — arm the trial's plan afterwards with set_fault().
  void restore(const Snapshot& s);

  /// Incremental restore (requires VmOptions::track_writes): copy back only
  /// the memory pages written since the last (full or incremental) restore,
  /// then restore the cheap non-memory state as restore() does.
  /// PRECONDITION: the machine's memory last equaled `s.mem` (it was
  /// constructed from or restored to this same snapshot) and has since been
  /// mutated only through tracked execution — restoring to a *different*
  /// snapshot must go through restore().
  void restore_dirty(const Snapshot& s);

  /// Become a copy of `golden` (both machines over the same program with
  /// track_writes on). With `full`, the whole memory image is copied; with
  /// `full == false` only the pages either machine dirtied since the two
  /// last had identical memory are copied — the exact-fork step of the
  /// campaign scheduler, where `golden` is a cursor crawling the fault-free
  /// prefix and this machine reruns trial after trial. Clears BOTH
  /// machines' dirty bitmaps (they are in sync again).
  void fork_from(Vm& golden, bool full);

  /// True when the live machine state equals `s` bit for bit (memory,
  /// frames, live slots, sp, RNG, outputs, region counts, retired count,
  /// status). Deliberately ignores the fault-fired flag: the forked-trial
  /// convergence probe guards on fault_fired() itself before trusting
  /// state equality (an armed-but-unfired plan could still diverge later).
  [[nodiscard]] bool state_equals(const Snapshot& s) const;

  /// state_equals minus the memory image and emitted outputs: frames, live
  /// slots, sp, RNG, region counts, retired count and status all equal.
  /// The compositional engine (src/compose/) uses this to decide whether a
  /// faulty section exit differs from golden ONLY in data — in which case
  /// the difference is expressible as a (memory words, output slots) delta
  /// and eligible for symbolic propagation. Ignores fault_fired, like
  /// state_equals.
  [[nodiscard]] bool control_equals(const Snapshot& s) const;

  /// Re-arm the fault plan mid-life (clears the fired flag). Used by the
  /// campaign scheduler to reuse one restored machine for a new trial.
  void set_fault(const FaultPlan& plan) noexcept;

  /// Checkpoint/rollback recovery re-entry (fault/campaign.h,
  /// RecoveryPolicy): restore `s` and disarm the fault plan, so the
  /// re-execution runs clean from the checkpoint. The contract is uniform
  /// across all three engines — the retired count rewinds to the
  /// checkpoint's while the hang budget stays the absolute
  /// VmOptions::max_instructions ceiling (the re-executed tail gets
  /// exactly the headroom the original execution had at the checkpoint),
  /// any pending run_until() pause mark is cleared, and the dirty-page
  /// bitmap is reset fully clean (a rolled-back machine shares no write
  /// history with any fork partner; the next fork_from must be full).
  /// Pinned cross-engine by tests/jit_test.cpp: a rollback from a
  /// native-cursor (JIT) run and from an interpreter run re-execute to
  /// state_equals-identical machines.
  void rollback(const Snapshot& s);

  // --- introspection ---------------------------------------------------------
  [[nodiscard]] Status status() const noexcept { return status_; }
  [[nodiscard]] TrapKind trap() const noexcept { return trap_; }
  [[nodiscard]] std::uint64_t instructions_retired() const noexcept {
    return n_retired_;
  }
  [[nodiscard]] bool fault_fired() const noexcept { return fault_fired_; }
  [[nodiscard]] const std::vector<OutputValue>& outputs() const noexcept {
    return outputs_;
  }
  [[nodiscard]] RunResult take_result();

  /// Raw memory access (bounds-checked; aborts on misuse). Used by fault
  /// tooling and tests to read/poke program state.
  [[nodiscard]] std::uint64_t read_word(std::uint64_t addr,
                                        std::uint32_t size_bytes) const;
  void write_word(std::uint64_t addr, std::uint32_t size_bytes,
                  std::uint64_t bits);
  [[nodiscard]] std::span<const std::uint8_t> memory() const noexcept {
    return mem_;
  }

  /// How many instances of region `rid` have been entered so far.
  [[nodiscard]] std::uint32_t region_instances(std::uint32_t rid) const;

  /// Flat pc of the next instruction to retire (decoded engine only). The
  /// differential run pairs this with step() to find where a faulty run
  /// leaves the fault-free path without a static-coordinate lookup.
  [[nodiscard]] std::uint32_t next_pc() const noexcept {
    return dframes_.back().pc;
  }

  /// Per-opcode dynamic dispatch counts (indexed by ir::Opcode), collected
  /// by the decoded interpreter when VmOptions::count_opcodes is set; empty
  /// otherwise. A fetched-but-trapping instruction is counted (it was
  /// dispatched), so on a clean run the sum equals instructions_retired().
  [[nodiscard]] std::span<const std::uint64_t> opcode_counts() const noexcept {
    return opcode_counts_;
  }

 private:
  /// The JIT runtime helpers (jit/jit_runtime.cpp) mutate machine state on
  /// behalf of emitted code — frame push/pop, RNG, outputs, region faults —
  /// through this single named door instead of N friend functions.
  friend struct jit::VmAccess;
  // --- legacy engine ---------------------------------------------------------
  struct Frame {
    std::uint32_t func = 0;
    std::uint64_t activation = 0;
    std::uint32_t block = 0;
    std::uint32_t pc = 0;
    std::vector<std::uint64_t> regs;
    std::vector<std::uint64_t> arg_bits;
    std::vector<Location> arg_locs;
    std::uint64_t saved_sp = 0;
    // Where the Call result goes when this frame returns.
    std::uint32_t ret_reg = ir::kNoReg;
  };

  // --- decoded engine --------------------------------------------------------
  // Frames index into one contiguous slot stack (`slots_`): registers at
  // [reg_base, arg_base), argument bits at [arg_base, arg_base + nargs).
  // Argument locations live on a parallel stack (`arg_locs_`). Pushing a
  // frame bumps the tops; popping restores them — no heap allocation after
  // the stacks reach their high-water mark.
  struct DFrame {
    std::uint32_t func = 0;
    std::uint64_t activation = 0;
    std::uint32_t pc = 0;  // flat index into DecodedProgram::code()
    std::uint32_t reg_base = 0;
    std::uint32_t arg_base = 0;
    std::uint32_t arg_loc_base = 0;
    std::uint32_t nargs = 0;
    std::uint64_t saved_sp = 0;
    std::uint32_t ret_reg = ir::kNoReg;

    bool operator==(const DFrame&) const = default;
  };

  struct OpVal {
    std::uint64_t bits = 0;
    Location loc = kNoLoc;
    ir::Type type = ir::Type::Void;
  };

  /// Keep an attached column sink consistent with a restore to
  /// `target_retired`: rows past the restore point roll back (the sink's
  /// rows are a contiguous suffix of the executed stream).
  void sync_sink_to(std::uint64_t target_retired);

  // --- write tracking (page-granular dirty bitmap) ---------------------------
  static constexpr std::uint64_t kDirtyPageShift = 12;  // 4 KiB pages
  void mark_dirty(std::uint64_t addr, std::uint32_t size) noexcept {
    const std::uint64_t first = addr >> kDirtyPageShift;
    const std::uint64_t last = (addr + size - 1) >> kDirtyPageShift;
    for (std::uint64_t p = first; p <= last; ++p) {
      dirty_[p >> 6] |= std::uint64_t{1} << (p & 63);
    }
  }
  void restore_machine_state(const Snapshot& s);

  OpVal eval(const ir::Operand& o, const Frame& fr) const;
  OpVal eval_src(const Src& s, const DFrame& fr) const;
  void push_frame(std::uint32_t func, const ir::Instruction& call_ins,
                  Frame& caller, DynInstr* out);
  void push_dframe(const DecodedInstr& call_ins, const DFrame& caller,
                   DynInstr* out);
  Status step_legacy(DynInstr* out);
  template <bool Traced>
  Status step_decoded(DynInstr* out);
  template <bool Traced>
  void run_decoded_hot();
  /// Native driver (interp_jit.cpp): alternates compiled-code bursts with
  /// single-instruction interpreter steps at deopt sites and the armed
  /// ResultBit flip index. Requires opts_.jit over prog_, untraced.
  void run_jit();
  [[nodiscard]] bool next_is_region_marker() const;
  [[nodiscard]] bool mem_ok(std::uint64_t addr, std::uint32_t size) const;
  void init_memory(const ir::Module& m);
  void set_trap(TrapKind t) noexcept;
  void maybe_flip_result(std::uint64_t& bits);
  void apply_region_entry_fault(std::uint32_t rid);

  const ir::Module* mod_;
  const DecodedProgram* prog_ = nullptr;  // non-null => decoded engine
  VmOptions opts_;
  std::vector<std::uint8_t> mem_;
  std::vector<std::uint64_t> dirty_;  // page bitmap; only with track_writes
  std::vector<Frame> frames_;
  std::vector<DFrame> dframes_;
  std::vector<std::uint64_t> slots_;  // contiguous regs+args, decoded engine
  std::vector<Location> arg_locs_;
  std::uint32_t slot_top_ = 0;
  std::uint32_t arg_loc_top_ = 0;
  /// Hot-loop stop mark for run_until(): execution pauses (status stays
  /// Running) once n_retired_ reaches this, independent of the hang budget.
  std::uint64_t stop_at_ = ~std::uint64_t{0};
  std::uint64_t sp_ = 0;
  std::uint64_t next_activation_ = 1;
  std::uint64_t n_retired_ = 0;
  std::vector<OutputValue> outputs_;
  std::vector<std::uint32_t> region_counts_;
  std::vector<std::uint64_t> opcode_counts_;  // only with count_opcodes
  util::Randlc randlc_;
  TrapKind trap_ = TrapKind::None;
  Status status_ = Status::Running;
  bool fault_fired_ = false;
};

/// The decoded engine's complete machine state at one retired-instruction
/// boundary. Snapshots are plain value types: copy/move them freely, reuse
/// one as a save() target across calls (buffers are recycled), and share a
/// const snapshot across threads — restore() only reads it. Restoring costs
/// a handful of memcpys (dominated by the memory image), which is what
/// makes forking a campaign trial from a snapshot cheap next to replaying
/// the golden prefix it encodes.
struct Vm::Snapshot {
  std::vector<std::uint8_t> mem;
  std::vector<DFrame> frames;
  std::vector<std::uint64_t> slots;       // live prefix [0, slot_top)
  std::vector<Location> arg_locs;         // live prefix [0, arg_loc_top)
  std::vector<OutputValue> outputs;
  std::vector<std::uint32_t> region_counts;
  std::uint64_t sp = 0;
  std::uint64_t next_activation = 1;
  std::uint64_t retired = 0;
  util::Randlc randlc;
  TrapKind trap = TrapKind::None;
  Status status = Status::Running;
  bool fault_fired = false;

  /// Heap bytes the snapshot holds (capacity-independent) — a sizing aid
  /// for callers budgeting snapshot retention. (The campaign scheduler's
  /// waypoint cap estimates from the module's memory size instead, which
  /// dominates every snapshot and is known before any snapshot exists.)
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return mem.size() + frames.size() * sizeof(DFrame) +
           slots.size() * sizeof(std::uint64_t) +
           arg_locs.size() * sizeof(Location) +
           outputs.size() * sizeof(OutputValue) +
           region_counts.size() * sizeof(std::uint32_t);
  }
};

}  // namespace ft::vm
