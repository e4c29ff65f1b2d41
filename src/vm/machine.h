// The SPMD virtual machine: runs a module's `init()` single-threaded, then
// its parallel entry (`slave()`) on N concurrent OS threads against one
// shared heap, with barriers, locks, deterministic traps, cooperative hang
// detection, the BLOCKWATCH monitor client, and fault-injection hooks.
//
// This substitutes for the paper's native pthread execution + PIN injector:
// the monitor, queues and checks are the real runtime; only the ISA is
// interpreted.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "runtime/monitor_interface.h"
#include "vm/dispatch.h"
#include "vm/recovery.h"

namespace bw::vm {

class RaceOracle;

/// A single transient fault to inject (paper Section IV):
///  * BranchFlip — flip the outcome of the k-th dynamic branch of one
///    thread (the "flag register" fault; guaranteed activation).
///  * CondBit — flip one bit of a data operand feeding that branch's
///    comparison, re-evaluate the comparison, and leave the corrupted
///    value in the register so it persists past the branch (the
///    "condition variable" fault).
struct FaultPlan {
  bool active = false;
  unsigned thread = 0;
  std::uint64_t target_branch = 1;  // 1-based dynamic CondBr index
  enum class Mode { BranchFlip, CondBit } mode = Mode::BranchFlip;
  unsigned bit = 0;  // bit position for CondBit (mod 64)
  /// Transient faults (the default) are NOT re-injected when a recovery
  /// rollback replays the branch — the paper's soft-error model is a
  /// one-shot upset. true models a persistent/intermittent fault that
  /// re-fires on every retry (recovery stress tests: the retry budget
  /// must terminate).
  bool recurring = false;
  /// Adversarial fault model (campaign FaultType::TargetedFlip): instead
  /// of a one-shot upset, the fault anchors at the target_branch-th
  /// dynamic CondBr of the victim thread and re-applies on every
  /// subsequent execution of that SAME static branch site, up to
  /// targeted_flips total applications (0 = unbounded). Models the
  /// repeated flips of one chosen critical branch from "Securing
  /// Conditional Branches in the Presence of Fault Attacks". The
  /// adversary is persistent: rollback does not restore its budget, so
  /// flips spent in rolled-back timelines stay spent.
  bool targeted = false;
  std::uint32_t targeted_flips = 1;
};

enum class TrapKind {
  None,
  OutOfBounds,     // load/store outside the shared heap
  DivideByZero,    // sdiv/srem by zero
  BadPointer,      // dereferencing a non-pointer bit pattern
  InstructionBudget,  // runaway loop (watchdog)
  Deadlock,        // coordinator found no runnable thread
  Detected,        // monitor raised a violation; program stopped
  Aborted,         // another thread trapped; this one was shut down
};

const char* to_string(TrapKind kind);

struct ThreadOutcome {
  TrapKind trap = TrapKind::None;
  std::string detail;
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;  // dynamic CondBr count (fault targeting)
  bool fault_applied = false;  // this thread reached its planned fault
  std::uint64_t reports_muted = 0;  // sends skipped at muted sites
  std::string output;          // this thread's print log
};

/// Single-phase execution plan for the compositional campaign engine
/// (fault/compositional.h): run exactly one barrier-delimited slice of the
/// parallel section, entering from a barrier-aligned checkpoint and
/// exiting at the next cut. A phase plan is the second consumer of the
/// one barrier cut that recovery checkpoints use (vm/recovery.h): the
/// same staging, the same Checkpoint assembly, the same generation-0
/// baseline and the same restore. Barriers are the only sound cut points,
/// for the same reason they are the only sound rollback targets: no
/// branch instance spans one.
///
/// Mutually exclusive with RecoveryOptions::enabled (a rollback would
/// cross the phase cut and re-entangle the slices).
struct PhasePlan {
  bool active = false;
  /// Entry state. Null = run from the section entry (init() included).
  /// Non-null = skip init(), restore the shared heap, the coordinator's
  /// barrier generation / lock owners, and every thread's snapshot, then
  /// resume: all threads re-cross the entry barrier together, exactly
  /// like a recovery restore. The checkpoint must outlive the run.
  const Checkpoint* entry = nullptr;
  /// Stop the run when the global barrier generation reaches this value:
  /// every thread exits cleanly right after crossing that barrier (the
  /// phase-exit cut). 0 = run to the section end (the last phase).
  std::uint64_t exit_generation = 0;
  /// When non-null and exit_generation fires, receives the state at the
  /// cut (the checkpoint a recovery commit would have kept there).
  Checkpoint* exit_capture = nullptr;
  /// Golden capture mode: append one checkpoint per crossed barrier
  /// generation, after the generation-0 baseline that recovery also rolls
  /// back to, so trace[g] is always the entry state of phase g.
  std::vector<Checkpoint>* trace = nullptr;
  /// Golden capture mode: per-phase sorted unique (function index, block
  /// index) pairs executed, merged across threads — the input to the
  /// per-phase code fingerprint. Requires ExecTier::Interpreter (the
  /// profiling hooks live in the reference tier only; one golden capture
  /// per campaign makes its speed irrelevant).
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>*
      block_profile = nullptr;
};

struct RunResult {
  /// True iff every thread ran to completion without traps or hangs.
  bool ok = false;
  bool hang = false;      // any deadlock/budget trap
  bool detected = false;  // monitor flagged a violation
  bool crash = false;     // any memory/arithmetic trap
  bool fault_applied = false;  // the planned fault was activated
  std::vector<ThreadOutcome> threads;
  /// Deterministic program output: per-thread logs concatenated in thread
  /// id order (race-free SPMD programs print deterministically per thread).
  std::string output;
  std::uint64_t total_instructions = 0;
  std::uint64_t total_branches = 0;
  /// Reports not sent because their check cannot fire with this run's
  /// thread count (runtime::min_reporters), summed over threads.
  std::uint64_t reports_muted = 0;
  /// Wall-clock of the parallel section, nanoseconds.
  std::uint64_t parallel_ns = 0;
  /// Checkpoint/rollback accounting (all-zero when recovery is off).
  RecoveryStats recovery;
  /// The run rolled back at least once and still finished cleanly.
  bool recovered = false;
  /// A PhasePlan with exit_generation fired: the run stopped at the phase
  /// cut (and exit_capture, if set, holds the state there). False means
  /// the program left the section before reaching the cut.
  bool phase_exited = false;
  /// The tier that actually executed (resolved; never Auto).
  ExecTier tier = ExecTier::Interpreter;
};

struct RunOptions {
  unsigned num_threads = 4;
  std::string parallel_entry = "slave";
  /// Optional sequential setup function executed by a single thread before
  /// the parallel section (mirrors SPLASH-2 main()).
  std::string init_function = "init";
  /// Per-thread retired-instruction watchdog; 0 = unlimited.
  std::uint64_t instruction_budget = 0;
  /// Attach a monitor to receive instrumentation reports (nullptr = run
  /// uninstrumented / ignore bw.* instructions).
  runtime::BranchSink* monitor = nullptr;
  /// Poll the monitor and abort as Detected as soon as it flags (true for
  /// fault-injection runs; false when measuring performance).
  bool stop_on_detection = true;
  FaultPlan fault;
  /// Barrier-aligned checkpoint/rollback (see vm/recovery.h). Requires a
  /// monitor that supports the recovery protocol and stop_on_detection;
  /// the pipeline enforces that gating.
  RecoveryOptions recovery;
  /// Which dispatcher to run (vm/dispatch.h); Auto resolves to Threaded.
  /// The tiers are bit-identical for verified modules (the differential
  /// suite enforces it), so this only trades speed for debuggability.
  ExecTier tier = ExecTier::Auto;
  /// Attach a dynamic race detector (vm/race_oracle.h). Records shared
  /// heap traffic of the parallel section only; nullptr = no recording.
  RaceOracle* race_oracle = nullptr;
  /// Single-phase execution for the compositional campaign engine (see
  /// PhasePlan). Inactive by default.
  PhasePlan phase;
};

/// Execute the module. Thread-safe with respect to other Machines; the
/// module itself is read-only during execution.
RunResult run_program(const ir::Module& module, const RunOptions& options);

}  // namespace bw::vm
