// Internal execution engine shared by the two dispatchers: the interpreter
// loop (machine.cpp) and the direct-threaded loop (dispatch.cpp) are both
// ThreadRunner member functions over the same Machine, Coordinator, trap,
// checkpoint and fault-injection machinery, so every semantic outside raw
// dispatch — heap access, barriers, rollback, monitor reports, fault
// anchoring, instruction accounting — exists exactly once and cannot drift
// between tiers.
//
// The barrier cut is one path for both of its consumers, recovery
// rollback and phase plans: barrier_sync stages a thread's snapshot into
// Machine::staged_, the coordinator's cut hook assembles the Checkpoint
// once (Machine::assemble_cut) and hands it to RecoveryCoordinator::commit
// or to the phase plan, and a resume goes through Machine::restore_shared
// plus ThreadRunner::resume_from, whether it is a rollback or a phase
// entry. Not installed; include only from src/vm/*.cpp.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "runtime/checker.h"
#include "runtime/context_tracker.h"
#include "support/diagnostics.h"
#include "support/prng.h"
#include "vm/dispatch.h"
#include "vm/machine.h"
#include "vm/race_oracle.h"
#include "vm/recovery.h"

namespace bw::vm::detail {

struct Trap {
  TrapKind kind;
  std::string detail;
};

/// Unwinds a program thread out of the dispatcher to its section top for
/// a recovery rollback. Deliberately distinct from Trap: a rollback is
/// not an error outcome, and must never be caught by trap classification.
struct RollbackSignal {};

/// Unwinds a program thread out of the dispatcher when a PhasePlan's exit
/// barrier has been crossed. Like RollbackSignal, this is a clean control
/// transfer — the thread finished its phase slice — and must never be
/// classified as a trap.
struct PhaseExitSignal {};

union RtValue {
  std::int64_t i;
  double f;
};

/// Thread lifecycle / barrier / lock coordinator with cooperative deadlock
/// detection: the invariant "if no thread is Running and any thread is
/// waiting, the program can never progress" classifies fault-induced
/// barrier mismatches and lost unlocks as hangs deterministically, without
/// timeouts.
class Coordinator {
 public:
  explicit Coordinator(unsigned n)
      : status_(n, Status::Running), waiting_lock_(n, 0) {}

  /// Cut hook, run by the barrier-releasing thread under the coordinator
  /// mutex once every thread has arrived (every waiter is parked on cv_,
  /// so the staged snapshots and the heap are stable).
  /// Receives the new barrier generation and the held-locks map; returns
  /// true to demand an immediate rollback (forced-rollback test hook).
  /// The hook must NOT call back into this Coordinator.
  using CheckpointHook = std::function<bool(
      std::uint64_t, const std::unordered_map<std::int64_t, unsigned>&)>;
  void set_checkpoint_hook(CheckpointHook hook) {
    checkpoint_hook_ = std::move(hook);
  }

  void barrier_wait(unsigned tid) {
    std::unique_lock<std::mutex> lock(mu_);
    throw_if_stopped(tid);
    ++barrier_arrived_;
    if (barrier_arrived_ == status_.size() - done_count_ - trapped_count_ &&
        done_count_ + trapped_count_ > 0) {
      // Everyone still alive is here, but departed threads will never
      // arrive: the real program would block forever.
      declare_hang();
      throw Trap{TrapKind::Deadlock, "barrier mismatch"};
    }
    if (barrier_arrived_ == status_.size()) {
      barrier_arrived_ = 0;
      ++barrier_generation_;
      if (checkpoint_hook_ &&
          checkpoint_hook_(barrier_generation_, lock_owner_)) {
        rollback_.store(true, std::memory_order_relaxed);
      }
      // Mark all waiters runnable NOW (under the mutex): they are
      // logically released even before they physically wake, so the
      // deadlock detector must not count them as waiting.
      for (Status& s : status_) {
        if (s == Status::Barrier) s = Status::Running;
      }
      cv_.notify_all();
      throw_if_stopped(tid);
      return;
    }
    status_[tid] = Status::Barrier;
    const std::uint64_t generation = barrier_generation_;
    check_deadlock_locked();
    cv_.wait(lock, [&] {
      return barrier_generation_ != generation || hang_ ||
             abort_.load(std::memory_order_relaxed) ||
             rollback_.load(std::memory_order_relaxed);
    });
    status_[tid] = Status::Running;
    throw_if_stopped(tid);
  }

  void lock_acquire(unsigned tid, std::int64_t lock_id) {
    std::unique_lock<std::mutex> lock(mu_);
    throw_if_stopped(tid);
    auto it = lock_owner_.find(lock_id);
    if (it != lock_owner_.end() && it->second == tid) {
      declare_hang();
      throw Trap{TrapKind::Deadlock, "self-deadlock on lock"};
    }
    if (it == lock_owner_.end()) {
      lock_owner_[lock_id] = tid;
      return;
    }
    status_[tid] = Status::LockWait;
    waiting_lock_[tid] = lock_id;
    check_deadlock_locked();
    cv_.wait(lock, [&] {
      return lock_owner_.find(lock_id) == lock_owner_.end() || hang_ ||
             abort_.load(std::memory_order_relaxed) ||
             rollback_.load(std::memory_order_relaxed);
    });
    status_[tid] = Status::Running;
    throw_if_stopped(tid);
    lock_owner_[lock_id] = tid;
  }

  void lock_release(unsigned tid, std::int64_t lock_id) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = lock_owner_.find(lock_id);
    // Releasing a lock one does not hold is a fault symptom; tolerate it
    // (real pthreads behaviour is undefined; tolerating avoids masking the
    // fault's downstream effects).
    if (it != lock_owner_.end() && it->second == tid) {
      lock_owner_.erase(it);
      cv_.notify_all();
    }
  }

  void thread_finished(unsigned tid) {
    std::lock_guard<std::mutex> lock(mu_);
    status_[tid] = Status::Done;
    ++done_count_;
    check_deadlock_locked();
  }

  void thread_trapped(unsigned tid) {
    std::lock_guard<std::mutex> lock(mu_);
    status_[tid] = Status::Trapped;
    ++trapped_count_;
    check_deadlock_locked();
  }

  void request_abort() {
    std::lock_guard<std::mutex> lock(mu_);
    abort_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }

  bool abort_requested() const {
    return abort_.load(std::memory_order_relaxed);
  }

  /// Kick every thread parked in a barrier or lock wait out through a
  /// RollbackSignal so the rollback rendezvous can assemble.
  void request_rollback() {
    std::lock_guard<std::mutex> lock(mu_);
    rollback_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }

  /// Terminal states only (hang/abort); used to cancel a rendezvous.
  bool stopped() const {
    return hang_flag_.load(std::memory_order_relaxed) ||
           abort_.load(std::memory_order_relaxed);
  }

  /// Rewind lock/barrier bookkeeping to a checkpoint. Called by the
  /// rollback leader while every other program thread is parked at the
  /// rendezvous (nobody is inside any Coordinator wait).
  void reset_for_retry(
      std::uint64_t barrier_generation,
      const std::vector<std::pair<std::int64_t, unsigned>>& lock_owners) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Status& s : status_) s = Status::Running;
    std::fill(waiting_lock_.begin(), waiting_lock_.end(), 0);
    done_count_ = 0;
    trapped_count_ = 0;
    barrier_arrived_ = 0;
    barrier_generation_ = barrier_generation;
    lock_owner_.clear();
    for (const auto& [id, tid] : lock_owners) lock_owner_[id] = tid;
    rollback_.store(false, std::memory_order_relaxed);
  }

 private:
  enum class Status { Running, Barrier, LockWait, Done, Trapped };

  void throw_if_stopped(unsigned tid) {
    (void)tid;
    if (hang_) throw Trap{TrapKind::Deadlock, "program deadlocked"};
    if (abort_.load(std::memory_order_relaxed)) {
      throw Trap{TrapKind::Aborted, "aborted by peer"};
    }
    if (rollback_.load(std::memory_order_relaxed)) throw RollbackSignal{};
  }

  void check_deadlock_locked() {
    // While a rollback is assembling, threads leave their waits through
    // RollbackSignal in arbitrary order; the running/waiting census is
    // transient and must not be classified as a hang.
    if (rollback_.load(std::memory_order_relaxed)) return;
    unsigned running = 0;
    unsigned waiting = 0;
    for (unsigned t = 0; t < status_.size(); ++t) {
      switch (status_[t]) {
        case Status::Running:
          ++running;
          break;
        case Status::LockWait:
          // A waiter whose lock has been released is logically runnable
          // even if it has not physically woken yet.
          if (lock_owner_.find(waiting_lock_[t]) == lock_owner_.end()) {
            ++running;
          } else {
            ++waiting;
          }
          break;
        case Status::Barrier:
          ++waiting;
          break;
        case Status::Done:
        case Status::Trapped:
          break;
      }
    }
    // A full barrier releases at arrival, so waiting threads with nobody
    // running can never be woken by the program itself.
    if (running == 0 && waiting > 0) declare_hang();
  }

  void declare_hang() {
    hang_ = true;
    hang_flag_.store(true, std::memory_order_relaxed);
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Status> status_;
  std::vector<std::int64_t> waiting_lock_;
  unsigned done_count_ = 0;
  unsigned trapped_count_ = 0;
  unsigned barrier_arrived_ = 0;
  std::uint64_t barrier_generation_ = 0;
  std::unordered_map<std::int64_t, unsigned> lock_owner_;
  bool hang_ = false;
  std::atomic<bool> hang_flag_{false};
  std::atomic<bool> abort_{false};
  std::atomic<bool> rollback_{false};
  CheckpointHook checkpoint_hook_;
};

// Internal header: members are public so the two dispatcher TUs and the
// ThreadRunner share state without friend ceremony.
class Machine {
 public:
  Machine(const ir::Module& module, const RunOptions& options)
      : code_(acquire_program_code(module)),
        program_(code_->decoded),
        options_(options),
        tier_(resolve_tier(options.tier)),
        heap_(program_.layout.make_initial_heap()),
        coordinator_(options.num_threads) {}

  RunResult run();

  // --- The barrier cut (recovery checkpoints and phase plans) -----------

  /// Is the cut at this barrier crossing assembled? Recovery commits every
  /// checkpoint_interval-th crossing; a phase plan takes every crossing
  /// while it records a golden trace, else only its exit cut. Asked by the
  /// stager with its local crossing count and by the assembler with the
  /// global generation: the two are equal at every release.
  bool cut_wanted(std::uint64_t crossing) const {
    if (recovery_ != nullptr) return recovery_->checkpoint_due(crossing);
    const PhasePlan& plan = options_.phase;
    return plan.active &&
           (plan.trace != nullptr ||
            (plan.exit_generation != 0 && crossing == plan.exit_generation));
  }

  /// Park a thread's snapshot for the cut, with its local crossing count.
  /// No lock: the stager writes its own slot before Coordinator::
  /// barrier_wait takes the coordinator mutex, and assemble_cut reads the
  /// slots under that mutex after the last arrival.
  void stage_cut(unsigned tid, std::uint64_t crossing,
                 ThreadSnapshot snapshot) {
    staged_[tid].snapshot = std::move(snapshot);
    staged_[tid].crossing = crossing;
  }

  /// Build the checkpoint at a cut: heap, staged threads (moved out of
  /// their slots), held locks and the completeness census. Runs under the
  /// coordinator mutex with every thread parked in the barrier, or before
  /// the threads start (generation 0: nothing staged, so every slot is an
  /// empty-frames "restart the entry" snapshot).
  Checkpoint assemble_cut(
      std::uint64_t generation,
      const std::unordered_map<std::int64_t, unsigned>& lock_owner) {
    Checkpoint cut;
    cut.generation = generation;
    cut.heap = heap_;
    cut.threads.reserve(staged_.size());
    for (StagedCut& slot : staged_) {
      if (slot.crossing != generation) cut.complete = false;
      cut.threads.push_back(std::move(slot.snapshot));
    }
    cut.coordinator.lock_owners.assign(lock_owner.begin(), lock_owner.end());
    return cut;
  }

  /// Put the shared state back at a cut: the heap, then the coordinator
  /// one generation below it (every thread re-executes the cut's Barrier
  /// on resume, re-crossing it together) with the locks held across it.
  /// No program thread may be inside the coordinator: the rollback leader
  /// calls this with every peer parked at the rendezvous, phase entry
  /// before any thread starts.
  void restore_shared(const Checkpoint& cut) {
    heap_ = cut.heap;
    coordinator_.reset_for_retry(cut.generation == 0 ? 0 : cut.generation - 1,
                                 cut.coordinator.lock_owners);
  }

  /// Shared decode (both tiers' forms); immutable, shared across Machines.
  std::shared_ptr<const ProgramCode> code_;
  const DecodedProgram& program_;  // == code_->decoded
  const RunOptions& options_;
  const ExecTier tier_;  // resolved: Interpreter or Threaded, never Auto
  std::vector<std::int64_t> heap_;
  Coordinator coordinator_;
  std::unique_ptr<RecoveryCoordinator> recovery_;

  /// One staging slot per thread (sized only when cuts are taken). The
  /// crossing is the stager's local count; assemble_cut's census compares
  /// it against the global generation.
  struct StagedCut {
    ThreadSnapshot snapshot;
    std::uint64_t crossing = 0;
  };
  std::vector<StagedCut> staged_;

  // --- Phase-plan state (PhasePlan in machine.h) -----------------------
  /// Guards the block-profile merge of publish_block_profile().
  std::mutex phase_mu_;
  /// Set (release) by the checkpoint hook when exit_generation commits;
  /// every thread checks it (acquire) after leaving the barrier and
  /// unwinds through PhaseExitSignal.
  std::atomic<bool> phase_exit_done_{false};
};

class ThreadRunner {
 public:
  ThreadRunner(Machine& machine, unsigned tid, bool parallel_section)
      : m_(machine),
        tid_(tid),
        parallel_(parallel_section),
        monitor_(machine.options_.monitor),
        muted_checks_(
            runtime::unfireable_checks(machine.options_.num_threads)),
        recovery_(parallel_section ? machine.recovery_.get() : nullptr),
        phase_(parallel_section && machine.options_.phase.active
                   ? &machine.options_.phase
                   : nullptr),
        profiling_(phase_ != nullptr && phase_->block_profile != nullptr),
        // The oracle only sees the parallel section: init() is sequenced
        // before slave() by the thread fork, so its accesses cannot race.
        oracle_(parallel_section ? machine.options_.race_oracle : nullptr) {}

  ThreadOutcome run(std::uint32_t entry_index) {
    for (bool running = true; running;) {
      try {
        if (pending_restore_ != nullptr) {
          const ThreadSnapshot& ts = *pending_restore_;
          pending_restore_ = nullptr;
          if (ts.frames.empty()) {
            // Section-start baseline: restart the entry from scratch.
            invoke(entry_index, {}, /*callsite_id=*/0);
          } else {
            // Rebuild the native call stack frame by frame; the deepest
            // frame resumes at its checkpoint Barrier.
            restore_frames_ = &ts.frames;
            restore_depth_ = 0;
            invoke(ts.frames[0].func_index, {}, ts.frames[0].callsite_id);
          }
        } else {
          invoke(entry_index, {}, /*callsite_id=*/0);
        }
        // Parallel-section exit is a publish point: a monitor that stages
        // reports must not strand this thread's tail reports.
        if (monitor_ != nullptr) monitor_->flush(tid_);
        if (parallel_) m_.coordinator_.thread_finished(tid_);
        running = false;
        if (recovery_ != nullptr) {
          // Residual-violation gate: the last thread out runs the
          // monitor's finalize check, and any violation (from it or from
          // a peer still running) sends everyone back through a rollback.
          SectionVerdict verdict = recovery_->section_rendezvous(
              tid_, [this] { return m_.coordinator_.stopped(); });
          if (verdict == SectionVerdict::Rollback) {
            running = roll_back();
          } else if (verdict == SectionVerdict::Detected) {
            // Violation stands but the run cannot (or may no longer) roll
            // back: graceful degradation to detect-and-report. Threads
            // already passed the finished census; only the outcome flips.
            outcome_.trap = TrapKind::Detected;
            outcome_.detail =
                "monitor raised violation; recovery retries exhausted";
          }
        }
      } catch (const RollbackSignal&) {
        running = roll_back();
      } catch (const PhaseExitSignal&) {
        // Clean phase-slice completion: the exit barrier committed its
        // capture with this thread's snapshot staged, so the thread just
        // leaves — same shutdown shape as normal section completion.
        if (monitor_ != nullptr) monitor_->flush(tid_);
        if (parallel_) m_.coordinator_.thread_finished(tid_);
        running = false;
      } catch (const Trap& trap) {
        outcome_.trap = trap.kind;
        outcome_.detail = trap.detail;
        if (monitor_ != nullptr) monitor_->flush(tid_);
        if (parallel_) {
          m_.coordinator_.thread_trapped(tid_);
          // Shut the rest of the program down: any trap ends the run.
          m_.coordinator_.request_abort();
        }
        running = false;
      }
    }
    outcome_.instructions = instructions_;
    outcome_.branches = branches_;
    outcome_.reports_muted = reports_muted_;
    outcome_.output = std::move(output_);
    return std::move(outcome_);
  }

  [[noreturn]] void trap(TrapKind kind, std::string detail) {
    throw Trap{kind, std::move(detail)};
  }

  // --- Operand access ----------------------------------------------------

  static std::int64_t geti(const DOperand& op, const RtValue* regs) {
    return op.kind == DOperand::Kind::Reg ? regs[op.reg].i : op.i;
  }
  static double getf(const DOperand& op, const RtValue* regs) {
    return op.kind == DOperand::Kind::Reg ? regs[op.reg].f : op.f;
  }
  /// Raw 64-bit pattern of an operand regardless of type (hash input).
  static std::uint64_t raw(const DOperand& op, const RtValue* regs) {
    if (op.kind == DOperand::Kind::Reg) {
      return static_cast<std::uint64_t>(regs[op.reg].i);
    }
    if (op.kind == DOperand::Kind::ImmF) {
      return std::bit_cast<std::uint64_t>(op.f);
    }
    return static_cast<std::uint64_t>(op.i);
  }

  // --- Heap access (relaxed atomics: benign races under faults must not
  // --- be C++ UB) ---------------------------------------------------------

  std::int64_t heap_load(std::int64_t addr) {
    if (addr < 0 || static_cast<std::uint64_t>(addr) >= m_.heap_.size()) {
      trap(TrapKind::OutOfBounds,
           "load at word " + std::to_string(addr));
    }
    if (oracle_ != nullptr) {
      oracle_->record(tid_, epoch_, locks_mask_, addr, /*is_write=*/false,
                      /*is_atomic=*/false, &hi_lock_ids_);
    }
    return std::atomic_ref<std::int64_t>(m_.heap_[static_cast<std::size_t>(addr)])
        .load(std::memory_order_relaxed);
  }

  void heap_store(std::int64_t addr, std::int64_t value) {
    if (addr < 0 || static_cast<std::uint64_t>(addr) >= m_.heap_.size()) {
      trap(TrapKind::OutOfBounds,
           "store at word " + std::to_string(addr));
    }
    if (oracle_ != nullptr) {
      oracle_->record(tid_, epoch_, locks_mask_, addr, /*is_write=*/true,
                      /*is_atomic=*/false, &hi_lock_ids_);
    }
    std::atomic_ref<std::int64_t>(m_.heap_[static_cast<std::size_t>(addr)])
        .store(value, std::memory_order_relaxed);
  }

  /// Atomic read-modify-write on the shared heap (AtomicAdd). Shared by
  /// both tiers so bounds, oracle recording and memory order cannot drift.
  std::int64_t heap_atomic_add(std::int64_t addr, std::int64_t delta) {
    if (addr < 0 || static_cast<std::uint64_t>(addr) >= m_.heap_.size()) {
      trap(TrapKind::OutOfBounds, "atomic_add out of bounds");
    }
    if (oracle_ != nullptr) {
      oracle_->record(tid_, epoch_, locks_mask_, addr, /*is_write=*/true,
                      /*is_atomic=*/true, &hi_lock_ids_);
    }
    return std::atomic_ref<std::int64_t>(
               m_.heap_[static_cast<std::size_t>(addr)])
        .fetch_add(delta, std::memory_order_relaxed);
  }

  // --- Synchronization (shared by both tiers) ------------------------------

  /// Barrier semantics: cut staging, the coordinator wait, then the epoch
  /// advance that retires this phase for the race oracle. A restored
  /// thread resumes one below its cut's crossing and re-crosses the cut's
  /// barrier, so barriers_crossed_ equals the global generation in
  /// lockstep.
  void barrier_sync() {
    ++barriers_crossed_;
    // Every barrier arrival publishes this thread's buffered reports, so
    // none waits unseen behind the barrier (and a recovery commit's
    // quiesce sees them all).
    if (monitor_ != nullptr) monitor_->flush(tid_);
    if (parallel_ && m_.cut_wanted(barriers_crossed_)) {
      // Stage the snapshot BEFORE arriving: the releasing thread assembles
      // the cut while every stager is blocked inside the barrier.
      m_.stage_cut(tid_, barriers_crossed_, capture_snapshot());
    }
    m_.coordinator_.barrier_wait(tid_);
    ++epoch_;
    if (phase_ != nullptr &&
        m_.phase_exit_done_.load(std::memory_order_acquire)) {
      // The barrier we just crossed was the phase-exit cut (the releasing
      // thread captured the checkpoint under the coordinator mutex before
      // anyone was released, so the flag is ordered before this check).
      throw PhaseExitSignal{};
    }
    if (profiling_) {
      // The block containing this Barrier keeps executing into the next
      // phase without a fresh block entry: re-attribute it.
      profile_current_block();
    }
  }

  void lock_sync_acquire(std::int64_t id) {
    m_.coordinator_.lock_acquire(tid_, id);
    if (id < 0 || id >= 63) {
      // Ids outside the precise mask range are tracked exactly (sorted
      // multiset) so the race oracle can tell distinct high locks apart.
      hi_lock_ids_.insert(
          std::upper_bound(hi_lock_ids_.begin(), hi_lock_ids_.end(), id), id);
    }
    locks_mask_ |= RaceOracle::lock_bit(id);
  }

  void lock_sync_release(std::int64_t id) {
    m_.coordinator_.lock_release(tid_, id);
    if (id >= 0 && id < 63) {
      locks_mask_ &= ~RaceOracle::lock_bit(id);
    } else {
      auto it =
          std::lower_bound(hi_lock_ids_.begin(), hi_lock_ids_.end(), id);
      if (it != hi_lock_ids_.end() && *it == id) hi_lock_ids_.erase(it);
      if (hi_lock_ids_.empty()) locks_mask_ &= ~RaceOracle::lock_bit(id);
    }
  }

  static bool is_local_addr(std::int64_t addr) {
    return (static_cast<std::uint64_t>(addr) & kLocalTag) != 0;
  }

  /// Alloca slots: tagged pointers into a thread-private slot array
  /// (thread-private, so plain access is race-free).
  std::int64_t& local_slot(std::int64_t addr) {
    std::uint64_t index = static_cast<std::uint64_t>(addr) & ~kLocalTag;
    if (index >= local_slots_.size()) {
      trap(TrapKind::BadPointer, "bad local slot");
    }
    return local_slots_[index];
  }

  // --- Execution -----------------------------------------------------------

  void poll() {
    // The periodic poll is a flush point too: a thread that loops without
    // reporting or reaching a barrier still publishes what it buffered.
    if (monitor_ != nullptr) monitor_->flush(tid_);
    if (m_.coordinator_.abort_requested()) {
      trap(TrapKind::Aborted, "aborted by peer");
    }
    if (recovery_ != nullptr && recovery_->rollback_pending()) {
      throw RollbackSignal{};
    }
    if (monitor_ != nullptr && m_.options_.stop_on_detection &&
        monitor_->violation_detected()) {
      if (recovery_ != nullptr && recovery_->try_begin_rollback()) {
        m_.coordinator_.request_rollback();
        throw RollbackSignal{};
      }
      trap(TrapKind::Detected,
           recovery_ != nullptr
               ? "monitor raised violation; recovery retries exhausted"
               : "monitor raised violation");
    }
    if (m_.options_.instruction_budget != 0 &&
        instructions_ > m_.options_.instruction_budget) {
      trap(TrapKind::InstructionBudget, "instruction budget exhausted");
    }
  }

  // --- Checkpoint capture / restore ----------------------------------------

  /// Flatten the live call stack (shadowed in frame_stack_) plus all
  /// thread-private state. Called right before entering a checkpoint
  /// barrier, so every frame's block/ip are at their blocking point: the
  /// deepest at this Barrier, each parent at its pending Call. Register
  /// capture is trimmed to num_regs: threaded-tier frames append constant
  /// slots after the registers, and those are decode-time facts that must
  /// not enter the snapshot (cross-tier restore identity).
  ThreadSnapshot capture_snapshot() {
    ThreadSnapshot ts;
    ts.frames.reserve(frame_stack_.size());
    for (const ActiveFrame& frame : frame_stack_) {
      FrameSnapshot fs;
      fs.func_index = frame.func_index;
      fs.callsite_id = frame.callsite_id;
      fs.block = *frame.block;
      fs.ip = *frame.ip;
      const std::uint32_t num_regs =
          m_.program_.functions[frame.func_index].num_regs;
      fs.regs.reserve(num_regs);
      const RtValue* regs = frame.regs->data();
      for (std::uint32_t i = 0; i < num_regs; ++i) {
        fs.regs.push_back(regs[i].i);
      }
      ts.frames.push_back(std::move(fs));
    }
    ts.local_slots = local_slots_;
    ts.output = output_;
    ts.instructions = instructions_;
    ts.branches = branches_;
    ts.barriers_crossed = barriers_crossed_;
    ts.tracker = tracker_;
    return ts;
  }

  /// Arm this runner to resume from a cut: thread-private state, with the
  /// counters pre-deducted because the cut's Barrier (and each parent
  /// frame's pending Call) is re-executed, re-crossing the cut together
  /// with every peer. run() then rebuilds the frames; an empty-frames
  /// snapshot (the generation-0 baseline) restarts the entry from
  /// scratch. The snapshot must outlive the resume.
  void resume_from(const ThreadSnapshot& ts) {
    local_slots_ = ts.local_slots;
    output_ = ts.output;
    tracker_ = ts.tracker;
    branches_ = ts.branches;
    instructions_ = ts.instructions - ts.frames.size();
    barriers_crossed_ =
        ts.barriers_crossed == 0 ? 0 : ts.barriers_crossed - 1;
    pending_restore_ = &ts;
  }

  /// Rendezvous with every other thread, restore to the last clean
  /// checkpoint, and report whether the dispatcher should re-enter.
  bool roll_back() {
    RecoveryCoordinator::RestoreDecision decision =
        recovery_->arrive_and_restore(
            tid_, [this](const Checkpoint& cp) { m_.restore_shared(cp); },
            [this] { return m_.coordinator_.stopped(); });
    switch (decision.action) {
      case RestoreAction::Restore: {
        resume_from(decision.checkpoint->threads[tid_]);
        // The unwound native stack is gone; run() rebuilds it.
        call_depth_ = 0;
        frame_stack_.clear();
        restore_frames_ = nullptr;
        restore_depth_ = 0;
        // Transient faults are one-shot upsets: never re-inject a fault
        // that already fired (recurring faults re-arm; a fault that has
        // not fired yet stays armed either way).
        fault_done_ = outcome_.fault_applied && !m_.options_.fault.recurring;
        return true;
      }
      case RestoreAction::GiveUp:
        outcome_.trap = TrapKind::Detected;
        outcome_.detail =
            "monitor raised violation; recovery abandoned (monitor reset "
            "failed)";
        if (parallel_) m_.coordinator_.thread_trapped(tid_);
        return false;
      case RestoreAction::Cancelled:
      default:
        outcome_.trap = TrapKind::Aborted;
        outcome_.detail = "rollback cancelled by peer trap";
        if (parallel_) m_.coordinator_.thread_trapped(tid_);
        return false;
    }
  }

  // --- Phase-plan profiling -------------------------------------------------

  /// Golden-capture profiling: attribute (func, block) to the phase the
  /// thread is currently in. Unique-insert into a sorted vector — the
  /// universe is static program blocks, so these stay tiny.
  void profile_block(std::uint32_t func_index, std::uint32_t block) {
    const std::size_t phase = static_cast<std::size_t>(barriers_crossed_);
    if (profile_blocks_.size() <= phase) profile_blocks_.resize(phase + 1);
    auto& blocks = profile_blocks_[phase];
    const std::pair<std::uint32_t, std::uint32_t> key{func_index, block};
    auto it = std::lower_bound(blocks.begin(), blocks.end(), key);
    if (it == blocks.end() || *it != key) blocks.insert(it, key);
  }

  /// Re-attribute the innermost live block after a point where the phase
  /// index may have advanced without a block entry (post-barrier, and
  /// after a Call that may have barriered inside the callee).
  void profile_current_block() {
    if (frame_stack_.empty()) return;
    const ActiveFrame& frame = frame_stack_.back();
    profile_block(frame.func_index, *frame.block);
  }

  /// Merge this thread's per-phase block profile into the plan's shared
  /// output (called after run(), once the thread is done executing).
  void publish_block_profile() {
    if (!profiling_) return;
    auto& merged = *phase_->block_profile;
    std::lock_guard<std::mutex> lock(m_.phase_mu_);
    if (merged.size() < profile_blocks_.size()) {
      merged.resize(profile_blocks_.size());
    }
    for (std::size_t p = 0; p < profile_blocks_.size(); ++p) {
      auto& into = merged[p];
      into.insert(into.end(), profile_blocks_[p].begin(),
                  profile_blocks_[p].end());
      std::sort(into.begin(), into.end());
      into.erase(std::unique(into.begin(), into.end()), into.end());
    }
  }

  /// Tier dispatch: one call frame in the resolved tier. Both loops
  /// recurse back through their own entry point (Call handlers), never
  /// through this switch, so a run is single-tier end to end.
  RtValue invoke(std::uint32_t func_index, std::vector<RtValue> args,
                 std::uint32_t callsite_id) {
    return m_.tier_ == ExecTier::Threaded
               ? call_threaded(func_index, std::move(args), callsite_id)
               : call(func_index, std::move(args), callsite_id);
  }

  /// The interpreter dispatch loop (machine.cpp).
  RtValue call(std::uint32_t func_index, std::vector<RtValue> args,
               std::uint32_t callsite_id);

  /// The direct-threaded dispatch loop (dispatch.cpp).
  RtValue call_threaded(std::uint32_t func_index, std::vector<RtValue> args,
                        std::uint32_t callsite_id);

  static bool eval_icmp(ir::CmpPred pred, std::int64_t a, std::int64_t b) {
    switch (pred) {
      case ir::CmpPred::EQ: return a == b;
      case ir::CmpPred::NE: return a != b;
      case ir::CmpPred::LT: return a < b;
      case ir::CmpPred::LE: return a <= b;
      case ir::CmpPred::GT: return a > b;
      case ir::CmpPred::GE: return a >= b;
    }
    return false;
  }

  static bool eval_fcmp(ir::CmpPred pred, double a, double b) {
    switch (pred) {
      case ir::CmpPred::EQ: return a == b;
      case ir::CmpPred::NE: return a != b;
      case ir::CmpPred::LT: return a < b;
      case ir::CmpPred::LE: return a <= b;
      case ir::CmpPred::GT: return a > b;
      case ir::CmpPred::GE: return a >= b;
    }
    return false;
  }

  static std::int64_t safe_fptosi(double v) {
    if (std::isnan(v)) return 0;
    if (v >= 9.2233720368547758e18) {
      return std::numeric_limits<std::int64_t>::max();
    }
    if (v <= -9.2233720368547758e18) {
      return std::numeric_limits<std::int64_t>::min();
    }
    return static_cast<std::int64_t>(v);
  }

  // --- Fault injection -------------------------------------------------------

  /// Does the planned fault fire at THIS dynamic execution of the CondBr
  /// at (f, ip)? One-shot faults fire exactly once, at the target_branch-th
  /// dynamic branch. Targeted faults anchor there — recording the static
  /// site — and then re-fire on every later execution of that same site
  /// until the flip budget is spent (0 = unbounded). The anchor compares
  /// by (function address, instruction index), both stable for the
  /// duration of a run (the module is read-only during execution) and
  /// tier-independent (the threaded code array is index-aligned with the
  /// interpreter's).
  bool fault_fires(const DFunction& f, std::uint32_t ip) {
    const FaultPlan& plan = m_.options_.fault;
    if (!parallel_ || !plan.active || plan.thread != tid_) return false;
    if (!plan.targeted) {
      return !fault_done_ && branches_ == plan.target_branch;
    }
    if (!targeted_anchored_) {
      if (branches_ != plan.target_branch) return false;
      targeted_anchored_ = true;
      targeted_func_ = &f;
      targeted_ip_ = ip;
    } else if (targeted_func_ != &f || targeted_ip_ != ip) {
      return false;
    }
    return plan.targeted_flips == 0 || targeted_fired_ < plan.targeted_flips;
  }

  /// The fault may fire on this runner at all (victim thread of an active
  /// plan in the parallel section). Constant for the runner's lifetime,
  /// so the threaded tier patches its dispatch table on it.
  bool fault_possible() const {
    const FaultPlan& plan = m_.options_.fault;
    return parallel_ && plan.active && plan.thread == tid_;
  }

  /// Apply the planned fault at this branch. Returns the (possibly
  /// corrupted) branch outcome. See FaultPlan for semantics. `regs` must
  /// hold the frame's SSA registers at indices [0, num_regs) — true in
  /// both tiers — because the corrupted operand persists via its register
  /// index.
  bool apply_fault(const DFunction& f, const DInst& branch, RtValue* regs,
                   bool clean_taken) {
    fault_done_ = true;
    ++targeted_fired_;
    outcome_.fault_applied = true;
    const FaultPlan& plan = m_.options_.fault;
    if (plan.mode == FaultPlan::Mode::BranchFlip) {
      return !clean_taken;
    }
    // CondBit: find the comparison defining the branch condition and flip a
    // bit in one of its register operands, then re-evaluate. The corrupted
    // register persists (paper: "the corruption ... will persist even after
    // the execution of the branch").
    if (branch.ops[0].kind != DOperand::Kind::Reg) return !clean_taken;
    const DInst* cmp = defining(f, branch.ops[0].reg);
    if (cmp == nullptr ||
        (cmp->op != ir::Opcode::ICmp && cmp->op != ir::Opcode::FCmp)) {
      // No register-resident condition data: degrade to a flip, which is
      // the closest machine-level effect.
      return !clean_taken;
    }
    const DOperand* target = nullptr;
    for (const DOperand& op : cmp->ops) {
      if (op.kind == DOperand::Kind::Reg) {
        target = &op;
        break;
      }
    }
    if (target == nullptr) return !clean_taken;
    regs[target->reg].i ^= (std::int64_t{1} << (plan.bit & 63));
    bool corrupted;
    if (cmp->op == ir::Opcode::ICmp) {
      corrupted = eval_icmp(cmp->pred, geti(cmp->ops[0], regs),
                            geti(cmp->ops[1], regs));
    } else {
      corrupted = eval_fcmp(cmp->pred, getf(cmp->ops[0], regs),
                            getf(cmp->ops[1], regs));
    }
    regs[cmp->dest].i = corrupted ? 1 : 0;  // persist the i1 too
    return corrupted;
  }

  static const DInst* defining(const DFunction& f, std::uint32_t reg) {
    for (const DInst& inst : f.code) {
      if (inst.dest == reg) return &inst;
    }
    return nullptr;
  }

  /// Campaign diagnostics: "func:blockN" for the block containing ip.
  /// Shared by both tiers so the recorded fault site cannot drift.
  void note_fault_site(const DFunction& f, std::uint32_t ip,
                       std::uint32_t block) {
    std::uint32_t b = block;
    for (std::uint32_t bi = 0; bi + 1 < f.block_first.size(); ++bi) {
      if (f.block_first[bi] <= ip && ip < f.block_first[bi + 1]) {
        b = bi;
      }
    }
    outcome_.detail = f.name + ":block" + std::to_string(b);
  }

  // --- Monitor client ----------------------------------------------------------

  /// Does this site's check need more reporters than the run has threads?
  /// Then no instance of it can fire (runtime::min_reporters), and the site
  /// sends nothing: no hash, no report.
  bool muted(std::uint32_t imm) const {
    return (muted_checks_ >> (imm >> 24) & 1u) != 0;
  }

  /// sendBranchCondition: hash the condition data before the branch and
  /// latch it for the edge report. It must be captured here, not re-read
  /// on the edge: a CondBit fault corrupts the operand inside cond_br.
  void latch_condition(const DInst& d, const RtValue* regs) {
    std::uint64_t h = 0x6a09e667f3bcc909ULL;
    for (const DOperand& op : d.ops) {
      h = support::hash_combine(h, raw(op, regs));
    }
    latch_condition_hashed(d.imm, h);
  }

  /// Threaded-tier variant: the operand hash is computed by the caller
  /// over pre-resolved slots (identical inputs — raw() of a constant slot
  /// equals raw() of the immediate operand it was materialized from).
  void latch_condition_hashed(std::uint32_t imm, std::uint64_t hash) {
    latched_imm_ = imm;
    latched_hash_ = hash;
  }

  /// sendBranchAddr: the one report per branch instance. The latch spans
  /// only cond_br and the edge's phi moves, so it always belongs to this
  /// instance; a PartialValue edge without its own site's latch has
  /// nothing to group by and sends nothing (sound: checks hold on
  /// subsets).
  void send_outcome(std::uint32_t imm, bool outcome_flag) {
    if (muted(imm)) {
      ++reports_muted_;
      return;
    }
    runtime::BranchReport report = base_report(imm);
    report.outcome = outcome_flag;
    const bool latched = latched_imm_ == imm;
    latched_imm_ = 0;
    if (latched) {
      report.value = latched_hash_;
    } else if (report.check == runtime::CheckCode::PartialValue) {
      return;
    }
    monitor_->send(report);
  }

  runtime::BranchReport base_report(std::uint32_t imm) {
    runtime::BranchReport report;
    report.static_id = imm & 0xffffffu;
    report.check = static_cast<runtime::CheckCode>(imm >> 24);
    report.thread = tid_;
    report.ctx_hash = tracker_.ctx_hash();
    report.iter_hash = tracker_.iter_hash();
    return report;
  }

  Machine& m_;
  unsigned tid_;
  bool parallel_;
  runtime::BranchSink* monitor_;
  /// Bit c set: CheckCode c cannot fire at this run's thread count
  /// (RunOptions::num_threads), so its sites are muted.
  std::uint8_t muted_checks_;
  RecoveryCoordinator* recovery_;  // null unless recovery is enabled
  const PhasePlan* phase_;  // null unless a phase plan is active
  /// Golden-capture block profiling is on (phase_->block_profile set).
  bool profiling_;
  /// Per-phase sorted unique (func, block) pairs this thread executed.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      profile_blocks_;
  RaceOracle* oracle_;  // null unless a race oracle is attached
  runtime::ContextTracker tracker_;
  ThreadOutcome outcome_;
  std::string output_;
  std::vector<std::int64_t> local_slots_;
  std::uint64_t instructions_ = 0;
  std::uint64_t branches_ = 0;
  std::uint64_t barriers_crossed_ = 0;
  /// Sends skipped at muted sites, across every timeline a rollback
  /// replays (like the monitor's own report counts).
  std::uint64_t reports_muted_ = 0;
  /// Condition data latched by bw.send_cond for the next edge report of
  /// the same site (imm 0 = none; a PartialValue imm is never 0).
  std::uint32_t latched_imm_ = 0;
  std::uint64_t latched_hash_ = 0;
  /// Race-oracle context: barrier phase counter, held-lock bitmask, and a
  /// count of held locks whose ids share the collapsed high mask bit.
  std::uint64_t epoch_ = 0;
  std::uint64_t locks_mask_ = 0;
  /// Sorted multiset of held lock ids outside [0, 63): the exact identity
  /// the oracle uses where locks_mask_ only has the bit-63 summary.
  std::vector<std::int64_t> hi_lock_ids_;
  unsigned call_depth_ = 0;
  bool fault_done_ = false;
  /// Targeted fault model state. Deliberately NOT restored on rollback:
  /// the adversary outlives recovery attempts (see FaultPlan::targeted),
  /// and budget spent in rolled-back timelines stays spent.
  bool targeted_anchored_ = false;
  const DFunction* targeted_func_ = nullptr;
  std::uint32_t targeted_ip_ = 0;
  std::uint32_t targeted_fired_ = 0;

  /// Shadow of the native call recursion: pointers into each live frame's
  /// locals, so a barrier checkpoint can flatten the whole stack without
  /// restructuring the dispatchers into explicit machines. Threaded-tier
  /// frames point at slot vectors whose first num_regs entries are the
  /// SSA registers (capture_snapshot trims to those).
  struct ActiveFrame {
    std::uint32_t func_index;
    std::uint32_t callsite_id;
    std::vector<RtValue>* regs;
    std::uint32_t* block;
    std::uint32_t* ip;
  };
  std::vector<ActiveFrame> frame_stack_;
  /// Restore mode: frames still to be consumed by call()/call_threaded()
  /// while the native stack is rebuilt, and the snapshot to resume from.
  const std::vector<FrameSnapshot>* restore_frames_ = nullptr;
  std::size_t restore_depth_ = 0;
  const ThreadSnapshot* pending_restore_ = nullptr;
  /// Staging buffer for edge phi moves (parallel-copy semantics), reused
  /// across edges to stay allocation-free on the hot path.
  std::vector<std::int64_t> phi_staging_;
};

}  // namespace bw::vm::detail
