#include "runtime/monitor.h"

#include "support/diagnostics.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

Monitor::Monitor(unsigned num_threads, MonitorOptions options)
    : num_threads_(num_threads),
      options_(options),
      producers_(num_threads),
      table_(num_threads, options.max_pending_per_branch,
             [this](const Violation&) {
               violation_count_.fetch_add(1, std::memory_order_release);
               sampler_.note_violation();
             }),
      sampler_(options.sampling) {
  queues_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    queues_.push_back(
        std::make_unique<SpscQueue<BranchReport>>(options_.queue_capacity));
  }
}

Monitor::~Monitor() { stop(); }

void Monitor::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { run(); });
}

void Monitor::stop() {
  if (!started_.load()) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  if (thread_.joinable()) thread_.join();
}

/// Bounded-backoff give-up: count the drop, degrade, and ask the watchdog
/// whether the heartbeat has been frozen for the whole deadline — if so
/// the monitor thread is presumed dead and send() stops queueing.
void Monitor::give_up(std::uint32_t thread) {
  ProducerSlot& slot = producers_[thread];
  slot.dropped.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter_add(telemetry::Counter::ReportsDropped);
  raise_health(health_, sampler_, MonitorHealth::Degraded);
  if (slot.stall.expired(heartbeat_.load(std::memory_order_relaxed),
                         options_.watchdog)) {
    raise_health(health_, sampler_, MonitorHealth::Failed);
  }
}

void Monitor::send(const BranchReport& report) {
  BW_INTERNAL_CHECK(report.thread < num_threads_,
                    "report from out-of-range thread");
  if (health_.get() == MonitorHealth::Failed) {
    // Monitoring abandoned: count the loss, let the program run on.
    producers_[report.thread].dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (sampler_.active() &&
      !sampler_.should_check(report.ctx_hash, report.static_id,
                             report.iter_hash)) {
    return;  // instance deterministically sampled out on every thread
  }
  telemetry::counter_add(telemetry::Counter::ReportsSent);
  SpscQueue<BranchReport>& queue = *queues_[report.thread];
  BranchReport sealed;
  const BranchReport* payload = &report;
  if (options_.validate_reports) {
    sealed = report;
    seal_report(sealed);
    payload = &sealed;
  }
  if (queue.try_push(*payload)) return;

  // Slow path: bounded backoff (spin -> yield -> give up and drop). Queue
  // pressure is the leading indicator of a falling-behind monitor, so the
  // first failed push is an observable event (counted + logged) even when
  // the backoff eventually succeeds.
  telemetry::counter_add(telemetry::Counter::QueueFullEvents);
  telemetry::record_event(telemetry::EventKind::QueueHighWater,
                          telemetry::Phase::MonitorCheck, report.thread,
                          /*shard=*/0);
  sampler_.note_pressure();
  const BackoffPolicy& policy = options_.backoff;
  // Another producer's watchdog may declare the monitor dead while we
  // wait; don't keep paying backoff for a corpse.
  if (run_backoff(
          policy, [&] { return queue.try_push(*payload); },
          [&] {
            return policy.bounded && health_.get() == MonitorHealth::Failed;
          })) {
    return;
  }
  give_up(report.thread);
}

void Monitor::run() {
  // One span for the monitor thread's whole drain-and-check lifetime: in a
  // trace it sits on its own tid row, bracketing every violation event.
  telemetry::SpanScope span(telemetry::Phase::MonitorCheck, "monitor.drain");
  BranchReport report;
  while (true) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    run_pending_command();
    bool drained_any = false;
    // Round-robin over the per-thread front-end queues (paper Fig. 4).
    for (auto& queue : queues_) {
      int burst = 256;  // bounded burst keeps round-robin fair
      while (burst-- > 0 && queue->try_pop(report)) {
        drained_any = true;
        drain_popped(report);
      }
    }
    if (!drained_any) {
      if (stopping_.load(std::memory_order_acquire)) {
        // One final sweep: producers have stopped by contract.
        bool residue = false;
        for (auto& queue : queues_) {
          while (queue->try_pop(report)) {
            residue = true;
            drain_popped(report);
          }
        }
        if (!residue) break;
      } else {
        std::this_thread::yield();
      }
    }
  }
  finalize_all();
}

/// Executes a pending recovery command on the monitor thread (the only
/// thread allowed to touch the tables). Producers are quiescent for the
/// duration by the BranchSink recovery contract, so draining here observes
/// every report of the epoch being reset/finalized.
void Monitor::run_pending_command() {
  const int cmd = command_.load(std::memory_order_acquire);
  if (cmd == kCommandNone) return;
  BranchReport report;
  if (cmd == kCommandReset) {
    // Rollback: every queued report, pending instance, and recorded
    // violation belongs to the timeline being discarded. Health stays
    // sticky — drops already happened and must not be masked.
    for (auto& queue : queues_) {
      while (queue->try_pop(report)) ++stats_.reports_rolled_back;
    }
    table_.clear();
    violation_count_.store(0, std::memory_order_release);
  } else if (cmd == kCommandFinalize) {
    // Mid-run residual check: drain fully, then run the end-of-section
    // pass without stopping the monitor (the section may retry).
    for (auto& queue : queues_) {
      while (queue->try_pop(report)) drain_popped(report);
    }
    finalize_all();
  }
  command_.store(kCommandNone, std::memory_order_release);
  commands_done_.fetch_add(1, std::memory_order_release);
}

/// Post a command for the monitor thread and wait (bounded) for its
/// acknowledgement. False on a Failed/stopping monitor or timeout; a
/// timed-out command is retracted if the monitor never claimed it, so a
/// later epoch cannot be clobbered by a stale reset.
bool Monitor::post_command(int command) {
  if (!started_.load(std::memory_order_acquire)) return false;
  if (stopping_.load(std::memory_order_acquire)) return false;
  if (health_.get() == MonitorHealth::Failed) return false;
  const std::uint64_t done_before =
      commands_done_.load(std::memory_order_acquire);
  int expected = kCommandNone;
  if (!command_.compare_exchange_strong(expected, command,
                                        std::memory_order_acq_rel)) {
    return false;  // another command in flight (single-leader contract)
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(command_deadline_ns(options_.watchdog));
  while (commands_done_.load(std::memory_order_acquire) == done_before) {
    if (health_.get() == MonitorHealth::Failed ||
        std::chrono::steady_clock::now() >= deadline) {
      expected = command;
      command_.compare_exchange_strong(expected, kCommandNone,
                                       std::memory_order_acq_rel);
      return false;
    }
    std::this_thread::yield();
  }
  return true;
}

/// Wait until every report sent so far has been drained AND processed:
/// all queues empty, then two further heartbeats (the monitor thread came
/// back to the top of its loop twice, so any report popped before the
/// queues emptied has been fully filed/checked). Requires quiescent
/// producers — a concurrent send() would make "empty" meaningless.
bool Monitor::quiesce() {
  if (!started_.load(std::memory_order_acquire)) return true;
  if (stopping_.load(std::memory_order_acquire)) return false;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::nanoseconds(command_deadline_ns(options_.watchdog));
  bool seen_empty = false;
  std::uint64_t empty_beat = 0;
  while (true) {
    if (health_.get() == MonitorHealth::Failed) return false;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    bool all_empty = true;
    for (auto& queue : queues_) {
      if (queue->size() != 0) {
        all_empty = false;
        break;
      }
    }
    if (!all_empty) {
      seen_empty = false;
    } else {
      const std::uint64_t beat = heartbeat_.load(std::memory_order_acquire);
      if (!seen_empty) {
        seen_empty = true;
        empty_beat = beat;
      } else if (beat >= empty_beat + 2) {
        return true;
      }
    }
    std::this_thread::yield();
  }
}

bool Monitor::finalize_section() { return post_command(kCommandFinalize); }

bool Monitor::reset_epoch() { return post_command(kCommandReset); }

/// Screens one popped report (resilience.h) and files the survivors. The
/// single consumer's reaction to the stall hook is to suspend itself: no
/// heartbeat bumps, no draining, until stop() is requested, so producers
/// must survive on the backoff/watchdog policy alone.
void Monitor::drain_popped(BranchReport& report) {
  const MonitorFaultHooks& hooks = options_.fault_hooks;
  const PopVerdict verdict =
      screen_popped(report, hooks, /*hooks_apply=*/true,
                    options_.validate_reports, num_threads_, pops_, health_,
                    sampler_);
  if (verdict == PopVerdict::Discard) return;
  if (hooks.delay_ns_per_report != 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(hooks.delay_ns_per_report));
  }
  if (verdict == PopVerdict::Stall) {
    while (!stopping_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ++stats_.reports_processed;
  if (options_.perform_checks) table_.process(report, degraded());
}

void Monitor::finalize_all() {
  telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                            "monitor.finalize");
  table_.finalize(degraded());
}

MonitorStats Monitor::stats() const {
  MonitorStats merged = stats_;
  merged.instances_checked = table_.instances_checked();
  merged.instances_evicted = table_.instances_evicted();
  merged.instances_skipped += table_.instances_skipped();
  merged.violations = table_.violations().size();
  merged.dropped_reports += pops_.dropped;
  merged.reports_rejected += pops_.rejected;
  merged.hooks_fired += pops_.hooks_fired;
  fold_producer_stats(merged, sampler_, producers_);
  return merged;
}

}  // namespace bw::runtime
