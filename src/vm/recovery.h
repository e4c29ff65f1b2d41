// Detection-triggered recovery for the SPMD VM: barrier-aligned
// checkpoints of the parallel section into a small bounded ring, and a
// coordinator that — when the monitor flags a violation — quiesces every
// program thread at its next safe point, rolls shared and per-thread
// state back to the last clean checkpoint, resets the monitor's tables to
// that epoch, and re-executes under a bounded retry budget.
//
// Why barriers are the cut points: BLOCKWATCH's similarity checks are
// keyed by (call context, static branch id) and the outer-loop iteration
// vector, and in SPMD code no branch instance spans a barrier — every
// thread's reports for an instance are sent before that thread crosses
// the next barrier. A checkpoint committed at a barrier, AFTER the
// monitor has drained every queued report and found no violation, is
// therefore provably clean: any later violation belongs to a branch
// instance that started after the cut, so rolling back to the cut
// discards the divergent timeline wholesale and the monitor can simply
// forget everything (reset_epoch) instead of surgically unwinding its
// two-level table. Any finer-grained cut (mid-iteration, mid-instance)
// would strand half-reported instances on the monitor side and replay
// the other half after restore, manufacturing false mismatches. See
// DESIGN.md "Detection-triggered recovery".
//
// The cut itself is the VM's, shared with phase plans (vm/machine.h
// PhasePlan): threads stage snapshots on the way into the barrier, the
// releasing thread assembles one Checkpoint, and restores go through one
// shared-state restore and one thread resume (vm/exec_internal.h). This
// coordinator keeps what only recovery needs: the quiesce-and-clean gate,
// the ring, the rollback and end-of-section rendezvous, and the stats.
//
// Exhaustion never livelocks: each rollback consumes one retry, and when
// the budget is gone the threads degrade to the pre-recovery behaviour —
// trap Detected and report, exactly as if recovery were off.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/context_tracker.h"

namespace bw::runtime {
class BranchSink;
}  // namespace bw::runtime

namespace bw::vm {

struct RecoveryOptions {
  /// Master switch. The pipeline only enables this when the attached
  /// monitor supports the quiesce/reset protocol and stop_on_detection
  /// is set (a violation must interrupt the run to be recoverable).
  bool enabled = false;
  /// Checkpoint every k-th barrier crossing (1 = every barrier). Larger
  /// intervals amortize the checkpoint cost against a longer re-execution
  /// window on rollback.
  unsigned checkpoint_interval = 1;
  /// Checkpoints kept live (oldest evicted). The section-start baseline
  /// is always retained in addition, so rollback always has a target.
  /// The default keeps rollback_lag + 1 so the lagged target is a real
  /// checkpoint (bounded re-execution) before escalating to the baseline.
  unsigned ring_capacity = 4;
  /// Rollbacks allowed before recovery degrades to detect-and-report.
  unsigned max_retries = 3;
  /// Roll back this many checkpoints DEEPER than the newest one. A
  /// checkpoint quiesces clean when no violation has been reported, but
  /// a fault that lands on an unchecked branch (category "none") only
  /// surfaces when a checked branch downstream consumes the corrupted
  /// data — possibly generations later, after the corruption has been
  /// committed into a "clean" checkpoint. Skipping the newest
  /// checkpoint(s) trades re-execution for a restore point that predates
  /// that detection-latency window; the skipped window is evicted, so
  /// repeated rollbacks escalate toward the section start. 0 = always
  /// trust the newest. The default of 3 covers the longest latency
  /// observed across the seven paper benchmarks (fmm, 51% unchecked
  /// branches, latency up to three generations).
  unsigned rollback_lag = 3;
  /// Test hook: force a rollback right after the N-th committed
  /// checkpoint (0 = never). Drives the determinism property tests: a
  /// clean section must replay bit-identically after a forced rollback.
  std::uint64_t force_rollback_after_checkpoint = 0;
};

struct RecoveryStats {
  std::uint64_t checkpoints_taken = 0;
  /// Checkpoint attempts abandoned because the monitor could not quiesce
  /// or had already flagged a violation (the state was not provably
  /// clean, so committing it would risk rolling back INTO the error).
  std::uint64_t checkpoints_discarded = 0;
  std::uint64_t rollbacks = 0;
  /// Rollbacks that found no committed checkpoint and restarted the
  /// parallel section from its entry (baseline checkpoint).
  std::uint64_t rollbacks_to_section_start = 0;
  unsigned retries_used = 0;
  /// The retry budget ran out; the run ended as Detected.
  bool retries_exhausted = false;
  /// The run rolled back at least once and still completed cleanly —
  /// the campaign verifies the output against the golden run on top.
  bool recovered = false;
  /// Cumulative time spent capturing + committing checkpoints.
  std::uint64_t checkpoint_ns = 0;
  /// Cumulative time the rollback leader spent resetting the monitor and
  /// restoring shared state (detection-to-resume latency floor).
  std::uint64_t restore_ns = 0;
  /// Heap words copied per checkpoint (footprint signal for the bench).
  std::uint64_t checkpoint_heap_words = 0;
};

/// One interpreter frame, flattened: registers are raw 64-bit patterns
/// (the VM's RtValue union), block/ip locate the resume instruction. For
/// the deepest frame ip addresses the Barrier itself, which is
/// re-executed on resume so all threads re-synchronize at the cut; for
/// every parent frame ip addresses the pending Call.
struct FrameSnapshot {
  std::uint32_t func_index = 0;
  std::uint32_t callsite_id = 0;
  std::uint32_t block = 0;
  std::uint32_t ip = 0;
  std::vector<std::int64_t> regs;
};

struct ThreadSnapshot {
  /// Outermost frame first. Empty = restart the parallel entry from
  /// scratch (the section-start baseline).
  std::vector<FrameSnapshot> frames;
  std::vector<std::int64_t> local_slots;
  std::string output;
  std::uint64_t instructions = 0;
  std::uint64_t branches = 0;
  std::uint64_t barriers_crossed = 0;
  /// Full copy of the context tracker: call-context and loop-iteration
  /// hash state, so replayed reports carry identical keys.
  runtime::ContextTracker tracker;
};

struct CoordinatorSnapshot {
  /// (lock id, owning thread) pairs held across the barrier.
  std::vector<std::pair<std::int64_t, unsigned>> lock_owners;
};

struct Checkpoint {
  /// Barrier generation the checkpoint was committed at (0 = the
  /// section-start baseline, before any barrier).
  std::uint64_t generation = 0;
  std::vector<std::int64_t> heap;
  std::vector<ThreadSnapshot> threads;  // indexed by thread id
  CoordinatorSnapshot coordinator;
  /// Every slot of `threads` was staged at exactly this generation's
  /// crossing. The census runs at every cut, for recovery and phase plans
  /// alike. It is defensive: a barrier releases only on a full census, so
  /// fault-free or not, every thread's local crossing count equals the
  /// global generation at every release. Were a thread ever to stage at
  /// another cut, or never, its slot would hold a leftover snapshot, and
  /// an empty-frames leftover would be misread as "restart the entry from
  /// scratch". Two consumers read it: a phase run refuses an incomplete
  /// entry, and the compositional engine classifies an incomplete exit
  /// capture end to end instead of continuing from it.
  bool complete = true;
};

enum class RestoreAction {
  Restore,    // checkpoint applied; re-enter the interpreter
  GiveUp,     // monitor reset failed; degrade to detect-and-report
  Cancelled,  // a peer trapped/hung while we waited; abandon the run
};

enum class SectionVerdict {
  Exit,       // section is clean (residual finalize included); leave
  Rollback,   // a violation surfaced; go to the rollback rendezvous
  Detected,   // a violation surfaced but the retry budget is spent (or the
              // monitor cannot reset): degrade to detect-and-report
  Cancelled,  // a peer trapped/hung; leave without a verdict
};

/// Shared rollback state machine for one Machine::run. All program
/// threads of the parallel section talk to one instance; the monitor is
/// driven only from here (quiesce at commit, reset at rollback, finalize
/// at section end).
class RecoveryCoordinator {
 public:
  RecoveryCoordinator(unsigned num_threads, const RecoveryOptions& options,
                      runtime::BranchSink* monitor);

  const RecoveryOptions& options() const { return options_; }

  /// Does the crossing-th barrier commit a checkpoint?
  bool checkpoint_due(std::uint64_t crossing) const {
    return crossing % options_.checkpoint_interval == 0;
  }

  /// Keep the section-start cut (generation 0: post-init heap, empty
  /// frames) as the always-available rollback target.
  void set_baseline(Checkpoint baseline);

  /// Called by the barrier-releasing thread under the coordinator mutex
  /// with the cut the machine assembled at that barrier (every thread
  /// parked inside it). Quiesces the monitor and keeps the cut in the ring
  /// iff no violation has been flagged; otherwise the state cannot be
  /// proven clean and the cut is discarded. `assembly_start` is when the
  /// machine began copying the cut, so checkpoint_ns covers assembly and
  /// commit. Returns true when the caller must initiate an immediate
  /// rollback (force_rollback_after_checkpoint test hook).
  bool commit(Checkpoint checkpoint,
              std::chrono::steady_clock::time_point assembly_start);

  /// True while a rollback is in flight; polled by the interpreter.
  bool rollback_pending() const {
    return rollback_pending_.load(std::memory_order_acquire);
  }

  /// Consume one retry and mark a rollback pending (idempotent while one
  /// is already pending). False = budget exhausted: the caller must trap
  /// Detected instead, which is the graceful-degradation contract.
  bool try_begin_rollback();

  struct RestoreDecision {
    RestoreAction action = RestoreAction::Cancelled;
    const Checkpoint* checkpoint = nullptr;
  };

  /// Rollback rendezvous: every thread unwinds to its section top and
  /// arrives here. The last arriver (leader) resets the monitor epoch,
  /// applies shared state via apply_shared (heap + coordinator), and
  /// releases everyone with the same decision. `cancelled` is polled
  /// while waiting so a peer's trap cannot wedge the rendezvous.
  RestoreDecision arrive_and_restore(
      unsigned tid, const std::function<void(const Checkpoint&)>& apply_shared,
      const std::function<bool()>& cancelled);

  /// End-of-section rendezvous: threads that completed the section wait
  /// here; the last arriver quiesces the monitor and runs the residual
  /// finalize check so a divergence only visible at finalize (e.g. a
  /// loop trip-count divergence) can still roll back instead of escaping
  /// as wrong output.
  SectionVerdict section_rendezvous(unsigned tid,
                                    const std::function<bool()>& cancelled);

  /// Fold the run verdict in and return the stats (call after join).
  RecoveryStats finalize_stats(bool run_ok);

 private:
  bool try_begin_rollback_locked();

  const unsigned num_threads_;
  RecoveryOptions options_;
  runtime::BranchSink* monitor_;

  std::mutex mu_;
  std::condition_variable cv_;

  Checkpoint baseline_;
  std::vector<Checkpoint> ring_;  // oldest first

  std::atomic<bool> rollback_pending_{false};
  unsigned retries_used_ = 0;

  // Rollback rendezvous state (round counter disambiguates retries).
  unsigned restore_arrived_ = 0;
  std::uint64_t restore_round_ = 0;
  RestoreAction restore_action_ = RestoreAction::Cancelled;
  const Checkpoint* restore_checkpoint_ = nullptr;

  // End-of-section rendezvous state (reset on every restore).
  unsigned section_arrived_ = 0;
  bool section_finalizing_ = false;
  bool section_done_ = false;
  bool section_detected_ = false;  // done with an unrecoverable violation

  RecoveryStats stats_;
};

}  // namespace bw::vm
