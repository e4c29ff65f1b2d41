#include "vm/recovery.h"

#include <chrono>
#include <cstddef>

#include "runtime/monitor_interface.h"
#include "support/diagnostics.h"
#include "support/telemetry/telemetry.h"

namespace bw::vm {

namespace {
std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}
}  // namespace

RecoveryCoordinator::RecoveryCoordinator(unsigned num_threads,
                                         const RecoveryOptions& options,
                                         runtime::BranchSink* monitor)
    : num_threads_(num_threads), options_(options), monitor_(monitor) {
  if (options_.checkpoint_interval == 0) options_.checkpoint_interval = 1;
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  ring_.reserve(options_.ring_capacity);
}

void RecoveryCoordinator::set_baseline(Checkpoint baseline) {
  baseline_ = std::move(baseline);
}

bool RecoveryCoordinator::commit(
    Checkpoint checkpoint,
    std::chrono::steady_clock::time_point assembly_start) {
  // This span fires at every checkpoint barrier, so a clean protected run
  // still shows Recovery-phase activity in its trace.
  telemetry::SpanScope span(telemetry::Phase::Recovery,
                            "recovery.checkpoint");
  // Quiesce-before-commit: every report sent before this barrier must be
  // drained and judged, and no violation may stand. Only then is the
  // assembled cut provably on the clean timeline. All producers are
  // blocked at the barrier for the duration, so the queues can only
  // shrink. A violation here does NOT begin a rollback — the releasing
  // thread's next poll() does, through the normal budgeted path.
  bool clean = true;
  if (monitor_ != nullptr) {
    clean = monitor_->quiesce() && !monitor_->violation_detected();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!clean) {
    ++stats_.checkpoints_discarded;
    telemetry::counter_add(telemetry::Counter::CheckpointsDiscarded);
    return false;
  }
  const std::uint64_t generation = checkpoint.generation;
  const std::size_t heap_words = checkpoint.heap.size();
  if (ring_.size() >= options_.ring_capacity) ring_.erase(ring_.begin());
  ring_.push_back(std::move(checkpoint));
  ++stats_.checkpoints_taken;
  stats_.checkpoint_heap_words = heap_words;
  const std::uint64_t elapsed = ns_since(assembly_start);
  stats_.checkpoint_ns += elapsed;
  telemetry::counter_add(telemetry::Counter::CheckpointsCommitted);
  telemetry::histogram_record(telemetry::Histogram::CheckpointNs, elapsed);
  telemetry::record_event(telemetry::EventKind::Checkpoint,
                          telemetry::Phase::Recovery, generation,
                          static_cast<std::uint64_t>(heap_words),
                          static_cast<std::uint64_t>(ring_.size()));
  if (options_.force_rollback_after_checkpoint != 0 &&
      stats_.checkpoints_taken == options_.force_rollback_after_checkpoint) {
    return try_begin_rollback_locked();
  }
  return false;
}

bool RecoveryCoordinator::try_begin_rollback() {
  std::lock_guard<std::mutex> lock(mu_);
  return try_begin_rollback_locked();
}

bool RecoveryCoordinator::try_begin_rollback_locked() {
  if (rollback_pending_.load(std::memory_order_relaxed)) return true;
  if (retries_used_ >= options_.max_retries) {
    stats_.retries_exhausted = true;
    return false;
  }
  ++retries_used_;
  stats_.retries_used = retries_used_;
  ++stats_.rollbacks;
  telemetry::counter_add(telemetry::Counter::Rollbacks);
  rollback_pending_.store(true, std::memory_order_release);
  cv_.notify_all();  // wake section-rendezvous waiters into the rollback
  return true;
}

RecoveryCoordinator::RestoreDecision RecoveryCoordinator::arrive_and_restore(
    unsigned tid, const std::function<void(const Checkpoint&)>& apply_shared,
    const std::function<bool()>& cancelled) {
  (void)tid;
  std::unique_lock<std::mutex> lock(mu_);
  const std::uint64_t round = restore_round_;
  ++restore_arrived_;
  if (restore_arrived_ < num_threads_) {
    while (restore_round_ == round) {
      if (cancelled()) return {RestoreAction::Cancelled, nullptr};
      cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
    return {restore_action_, restore_checkpoint_};
  }

  // Leader (last arriver): every other thread is parked on cv_ above, so
  // nothing races the shared restore. Reset the monitor FIRST — the
  // in-flight reports and recorded violations all belong to the timeline
  // being discarded — then apply heap + lock/barrier bookkeeping.
  restore_arrived_ = 0;
  // Skip the newest rollback_lag checkpoints: detection can lag the fault
  // by a generation when the faulted branch itself carries no check, so
  // the newest "clean" checkpoint may already hold the corruption. The
  // skipped window is evicted — it belongs to the suspect timeline, and
  // the replay recommits those generations anyway. Repeated rollbacks
  // therefore dig progressively deeper until the section-start baseline.
  const std::size_t keep = ring_.size() > options_.rollback_lag
                               ? ring_.size() - options_.rollback_lag
                               : 0;
  ring_.erase(ring_.begin() + static_cast<std::ptrdiff_t>(keep), ring_.end());
  const Checkpoint* target = ring_.empty() ? &baseline_ : &ring_.back();
  const auto start = std::chrono::steady_clock::now();
  lock.unlock();
  bool reset_ok;
  {
    telemetry::SpanScope span(telemetry::Phase::Recovery, "recovery.restore");
    reset_ok = monitor_ == nullptr || monitor_->reset_epoch();
    if (reset_ok) apply_shared(*target);
  }
  lock.lock();
  if (reset_ok) {
    const bool to_section_start = target == &baseline_;
    if (to_section_start) {
      ++stats_.rollbacks_to_section_start;
      telemetry::counter_add(telemetry::Counter::RollbacksToSectionStart);
    }
    const std::uint64_t elapsed = ns_since(start);
    stats_.restore_ns += elapsed;
    telemetry::histogram_record(telemetry::Histogram::RestoreNs, elapsed);
    telemetry::record_event(telemetry::EventKind::Rollback,
                            telemetry::Phase::Recovery, target->generation,
                            retries_used_, to_section_start ? 1 : 0);
    // Re-arm the per-attempt rendezvous state for the retried section.
    section_arrived_ = 0;
    section_finalizing_ = false;
    section_done_ = false;
    section_detected_ = false;
    rollback_pending_.store(false, std::memory_order_release);
    restore_action_ = RestoreAction::Restore;
  } else {
    // Monitor would not reset (stalled or Failed): recovery cannot make
    // the table state consistent with any checkpoint. Degrade: everyone
    // traps Detected, exactly as if recovery were off.
    restore_action_ = RestoreAction::GiveUp;
  }
  restore_checkpoint_ = target;
  ++restore_round_;
  cv_.notify_all();
  return {restore_action_, restore_checkpoint_};
}

SectionVerdict RecoveryCoordinator::section_rendezvous(
    unsigned tid, const std::function<bool()>& cancelled) {
  (void)tid;
  std::unique_lock<std::mutex> lock(mu_);
  ++section_arrived_;
  for (;;) {
    if (rollback_pending_.load(std::memory_order_relaxed)) {
      // A still-running (or just-finished) thread began a rollback; this
      // thread's "finished" state is part of the discarded timeline.
      return SectionVerdict::Rollback;
    }
    if (section_done_) {
      return section_detected_ ? SectionVerdict::Detected
                               : SectionVerdict::Exit;
    }
    if (cancelled()) return SectionVerdict::Cancelled;
    if (section_arrived_ == num_threads_ && !section_finalizing_) break;
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }

  // Leader: all threads completed this attempt. Residual instances (only
  // checked at finalize, e.g. loop trip-count divergence) are the last
  // way a detectable error could escape as wrong output — run the
  // finalize check NOW, while rollback is still possible.
  section_finalizing_ = true;
  lock.unlock();
  bool violated = false;
  if (monitor_ != nullptr) {
    if (monitor_->quiesce()) monitor_->finalize_section();
    violated = monitor_->violation_detected();
  }
  lock.lock();
  if (violated && try_begin_rollback_locked()) {
    return SectionVerdict::Rollback;
  }
  // Clean — or a violation stands that cannot roll back (budget spent):
  // the run degrades to plain detect-and-report.
  section_detected_ = violated;
  section_done_ = true;
  cv_.notify_all();
  return section_detected_ ? SectionVerdict::Detected : SectionVerdict::Exit;
}

RecoveryStats RecoveryCoordinator::finalize_stats(bool run_ok) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.recovered = run_ok && stats_.rollbacks > 0;
  return stats_;
}

}  // namespace bw::vm
