#include "runtime/monitor.h"

#include "runtime/consumer.h"
#include "support/diagnostics.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

Monitor::Monitor(unsigned num_threads, MonitorOptions options)
    : num_threads_(num_threads),
      options_(options),
      producers_(num_threads),
      core_(std::make_unique<TenantCore>(
          SinkCells{health_, sampler_, violation_count_}, num_threads,
          options_, /*hooks_apply=*/true)),
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
  stopping_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
}

void Monitor::send(const BranchReport& report) {
  BW_INTERNAL_CHECK(report.thread < num_threads_,
                    "report from out-of-range thread");
  ProducerSlot& slot = producers_[report.thread];
  if (health_.get() == MonitorHealth::Failed) {
    // Monitoring abandoned: count the loss, let the program run on.
    slot.dropped.fetch_add(1, std::memory_order_relaxed);
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
  auto try_push = [&] { return queue.try_push(*payload); };
  if (try_push()) return;
  push_or_give_up(try_push, SinkCells{health_, sampler_, violation_count_},
                  options_.backoff, options_.watchdog, report.thread,
                  /*shard=*/0, /*reports=*/1, slot.dropped, slot.stall,
                  heartbeat_);
}

void Monitor::run() {
  // One span for the monitor thread's whole drain-and-check lifetime: in a
  // trace it sits on its own tid row, bracketing every violation event.
  telemetry::SpanScope span(telemetry::Phase::MonitorCheck, "monitor.drain");
  while (true) {
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    run_pending_command();
    // Read before the pass: producers have stopped by contract once it is
    // set, so a pass after it that drains nothing has seen every report.
    const bool stopping = stopping_.load(std::memory_order_acquire);
    // A bounded burst per queue keeps the round-robin fair.
    if (drain_queues(/*file=*/true, /*burst=*/256) != 0) continue;
    if (stopping) break;
    std::this_thread::yield();
  }
  core_->finalize();
}

/// Pops up to `burst` reports from each per-thread front-end queue in
/// round-robin order (paper Fig. 4), filing each when `file` and
/// discarding it otherwise; returns how many were popped.
std::uint64_t Monitor::drain_queues(bool file, std::uint64_t burst) {
  BranchReport report;
  std::uint64_t popped = 0;
  for (auto& queue : queues_) {
    for (std::uint64_t n = 0; n < burst && queue->try_pop(report); ++n) {
      ++popped;
      if (file) drain_popped(report);
    }
  }
  return popped;
}

/// Executes a pending recovery command on the monitor thread (the only
/// thread allowed to touch the tables). Producers are quiescent for the
/// duration by the BranchSink recovery contract, so draining here observes
/// every report of the epoch being reset/finalized.
void Monitor::run_pending_command() {
  const int cmd = command_.load(std::memory_order_acquire);
  if (cmd == kCommandNone) return;
  if (cmd == kCommandReset) {
    // Rollback: every queued report, pending instance, and recorded
    // violation belongs to the timeline being discarded.
    core_->reset(drain_queues(/*file=*/false));
    violation_count_.store(0, std::memory_order_release);
  } else if (cmd == kCommandFinalize) {
    // Mid-run residual check: drain fully, then run the end-of-section
    // pass without stopping the monitor (the section may retry).
    drain_queues(/*file=*/true);
    core_->finalize();
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
  auto acked = [&] {
    return commands_done_.load(std::memory_order_acquire) != done_before;
  };
  if (bounded_wait(acked, options_.watchdog, &health_)) return true;
  expected = command;
  command_.compare_exchange_strong(expected, kCommandNone,
                                   std::memory_order_acq_rel);
  return false;
}

/// Wait until every report sent so far has been drained AND processed:
/// all queues empty, then two further heartbeats (the monitor thread came
/// back to the top of its loop twice, so any report popped before the
/// queues emptied has been fully filed/checked). Requires quiescent
/// producers — a concurrent send() would make "empty" meaningless.
bool Monitor::quiesce() {
  if (!started_.load(std::memory_order_acquire)) return true;
  if (stopping_.load(std::memory_order_acquire)) return false;
  bool seen_empty = false;
  std::uint64_t empty_beat = 0;
  return bounded_wait(
      [&] {
        for (auto& queue : queues_) {
          if (queue->size() != 0) {
            seen_empty = false;
            return false;
          }
        }
        const std::uint64_t beat = heartbeat_.load(std::memory_order_acquire);
        if (!seen_empty) {
          seen_empty = true;
          empty_beat = beat;
          return false;
        }
        return beat >= empty_beat + 2;
      },
      options_.watchdog, &health_);
}

bool Monitor::finalize_section() { return post_command(kCommandFinalize); }

bool Monitor::reset_epoch() { return post_command(kCommandReset); }

/// Files one popped report through the core, then applies this
/// topology's reactions: the delay hook sleeps per report, and the stall
/// hook suspends the monitor thread itself — no heartbeat bumps, no
/// draining — until stop() is requested, so producers must survive on the
/// backoff/watchdog policy alone.
void Monitor::drain_popped(BranchReport& report) {
  const PopVerdict verdict = core_->file(report);
  if (verdict == PopVerdict::Discard) return;
  if (options_.fault_hooks.delay_ns_per_report != 0) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(options_.fault_hooks.delay_ns_per_report));
  }
  if (verdict == PopVerdict::Stall) {
    while (!stopping_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

const std::vector<Violation>& Monitor::violations() const {
  return core_->table.violations();
}

MonitorStats Monitor::stats() const {
  MonitorStats merged;
  core_->fold(merged);
  merged.violations = core_->table.violations().size();
  fold_producer_stats(merged, sampler_, producers_);
  return merged;
}

}  // namespace bw::runtime
