// The consumer algorithm of the runtime monitor (paper Section III-B),
// written once: screen each popped report, file it into the two-level
// table, check, finalize at section end. The legacy Monitor runs one
// TenantCore over every program thread's queue; a MonitorService runs one
// per (session, shard) tenant. Both also share push_or_give_up(), the
// producer slow path after a refused ring push, and bounded_wait(), every
// recovery caller's wait. What stays per topology:
//
//   * the ring element: single reports, or a ReportBatch;
//   * the beat the watchdog reads: the Monitor heartbeat, or the
//     per-(session, shard) progress counter;
//   * the quiesce predicate: rings empty plus two beats, or
//     queued_reports == 0;
//   * the command mailbox: one claimable slot retracted on timeout, or a
//     sequence broadcast with per-shard acks plus detach;
//   * the stall reaction: the Monitor sleeps until stop() and then files
//     the rest; a shard freezes the tenant and counts the rest as drops;
//   * the delay granularity: a per-report sleep, or a per-batch deferral.
//
// Internal: only monitor.cpp and monitor_service.cpp include this header.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>

#include "runtime/branch_table.h"
#include "runtime/monitor.h"  // MonitorStats
#include "runtime/resilience.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

/// The cells of one sink (the Monitor, or one session) that its
/// producers, consumers and recovery callers all touch.
struct SinkCells {
  HealthCell& health;
  SamplingController& sampler;
  std::atomic<std::uint64_t>& violation_count;

  bool degraded() const { return health.get() != MonitorHealth::Healthy; }
  void raise(MonitorHealth to) const { raise_health(health, sampler, to); }
};

/// Consumer-owned counters of the pop screen.
struct PopCounters {
  std::uint64_t popped = 0;  // fault-hook index base (includes drops)
  std::uint64_t dropped = 0;
  std::uint64_t rejected = 0;
  std::uint64_t hooks_fired = 0;
};

enum class PopVerdict : std::uint8_t {
  Keep,     // process the report
  Discard,  // dropped or rejected; counted, health degraded
  Stall,    // the stall hook fired: process the report, then react
};

/// One consumer's slice of one sink. Owned by exactly one consumer thread.
class TenantCore {
 public:
  /// `Options` is MonitorOptions or SessionOptions; `hooks_apply` gates
  /// the fault hooks (a shard outside `shard_filter` passes false).
  template <typename Options>
  TenantCore(SinkCells sink, unsigned num_threads, const Options& options,
             bool hooks_apply)
      : sink(sink),
        table(num_threads, options.max_pending_per_branch,
              [this](const Violation&) {
                this->sink.violation_count.fetch_add(
                    1, std::memory_order_release);
                this->sink.sampler.note_violation();
              }),
        hooks(options.fault_hooks),
        hooks_apply(hooks_apply),
        num_threads_(num_threads),
        validate_(options.validate_reports),
        perform_checks_(options.perform_checks) {}

  /// Screens one popped report and files it unless discarded; the caller
  /// reacts to a Stall after the report is filed.
  PopVerdict file(BranchReport& report) {
    const PopVerdict verdict = screen_popped(report);
    if (verdict == PopVerdict::Discard) return verdict;
    ++reports_processed;
    if (perform_checks_) table.process(report, sink.degraded());
    return verdict;
  }

  /// Rollback: counts the `discarded` reports popped unfiled, forgets
  /// every pending instance and violation. Health stays sticky.
  void reset(std::uint64_t discarded) {
    reports_rolled_back += discarded;
    table.clear();
  }

  /// The end-of-section residual pass over everything filed so far.
  void finalize() {
    telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                              "monitor.finalize");
    table.finalize(sink.degraded());
  }

  /// Adds the consumer-owned counters into `m`.
  void fold(MonitorStats& m) const {
    m.reports_processed += reports_processed;
    m.instances_checked += table.instances_checked();
    m.instances_evicted += table.instances_evicted();
    m.instances_skipped += table.instances_skipped();
    m.dropped_reports += pops.dropped;
    m.reports_rejected += pops.rejected;
    m.reports_rolled_back += reports_rolled_back;
    m.hooks_fired += pops.hooks_fired;
  }

  const SinkCells sink;
  BranchTable table;
  PopCounters pops;  // hook indices count this consumer's pops
  std::uint64_t reports_processed = 0;
  std::uint64_t reports_rolled_back = 0;
  const MonitorFaultHooks hooks;
  const bool hooks_apply;

 private:
  /// The pop screen: the drop and corrupt hooks, checksum validation, the
  /// thread-range check and the stall hook, in that order. Validation and
  /// the range check run whether or not the hooks apply.
  PopVerdict screen_popped(BranchReport& report) {
    const std::uint64_t index = ++pops.popped;  // 1-based: 0 never fires
    if (hooks_apply && hooks.drop_report_index == index) {
      ++pops.hooks_fired;
      ++pops.dropped;
      sink.raise(MonitorHealth::Degraded);
      return PopVerdict::Discard;
    }
    if (hooks_apply && hooks.corrupt_report_index == index) {
      ++pops.hooks_fired;
      const unsigned bit = hooks.corrupt_bit % (8 * sizeof(BranchReport));
      unsigned char bytes[sizeof(BranchReport)];
      std::memcpy(bytes, &report, sizeof(BranchReport));
      bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
      std::memcpy(&report, bytes, sizeof(BranchReport));
    }
    // A report corrupted while queued is discarded rather than checked as
    // garbage against clean threads, and a thread id corrupted out of
    // range would index out of bounds (rejected even without checksums).
    // Both degrade, so the missing observation is treated as unverifiable
    // instead of a subset to be checked.
    if ((validate_ && !report_intact(report)) ||
        report.thread >= num_threads_) {
      ++pops.rejected;
      ++pops.dropped;
      sink.raise(MonitorHealth::Degraded);
      sink.sampler.note_anomaly();
      return PopVerdict::Discard;
    }
    if (hooks_apply && hooks.stall_after_reports == index) {
      ++pops.hooks_fired;
      return PopVerdict::Stall;
    }
    return PopVerdict::Keep;
  }

  const unsigned num_threads_;
  const bool validate_;
  const bool perform_checks_;
};

/// The producer slow path once `try_push()` of `reports` reports from
/// `thread` to consumer `shard` has failed: count and log the pressure,
/// then the backoff ladder (cut short by Failed health under a bounded
/// policy), repeated while `beat` has moved within the give-up grace. On
/// give-up the reports are drops, health degrades, and fails once `beat`
/// has been frozen for the watchdog deadline. Returns whether the push
/// went through.
template <typename TryPush>
bool push_or_give_up(TryPush&& try_push, SinkCells sink,
                     const BackoffPolicy& backoff,
                     const WatchdogOptions& watchdog, std::uint32_t thread,
                     unsigned shard, std::uint32_t reports,
                     std::atomic<std::uint64_t>& dropped, StallClock& stall,
                     const std::atomic<std::uint64_t>& beat) {
  telemetry::counter_add(telemetry::Counter::QueueFullEvents);
  telemetry::record_event(telemetry::EventKind::QueueHighWater,
                          telemetry::Phase::MonitorCheck, thread, shard);
  sink.sampler.note_pressure();
  auto failed = [&] {
    return backoff.bounded && sink.health.get() == MonitorHealth::Failed;
  };
  // A spent ladder measures yields, not the consumer: on an idle core the
  // yields return at once while a live consumer sits preempted or works
  // through its other rings. Give up only once its beat stands still.
  const std::uint64_t grace = give_up_grace_ns(watchdog);
  while (!run_backoff(backoff, try_push, failed)) {
    if (failed() ||
        stall.frozen_for(beat.load(std::memory_order_relaxed), grace)) {
      dropped.fetch_add(reports, std::memory_order_relaxed);
      telemetry::counter_add(telemetry::Counter::ReportsDropped, reports);
      sink.raise(MonitorHealth::Degraded);
      if (stall.expired(beat.load(std::memory_order_relaxed), watchdog)) {
        sink.raise(MonitorHealth::Failed);
      }
      return false;
    }
  }
  return true;
}

/// Yields until `done()` holds, `health` (unless null) is Failed, or the
/// recovery deadline passes; returns whether `done()` held. The deadline
/// is twice the watchdog stall budget (the consumer is dead past one)
/// plus scheduling slack; a disabled watchdog lends its default budget.
/// It never sleeps: campaign recovery quiesces at every checkpoint barrier.
template <typename Done>
bool bounded_wait(Done&& done, const WatchdogOptions& watchdog,
                  const HealthCell* health) {
  const std::uint64_t stall = watchdog.enabled
                                  ? watchdog.stall_timeout_ns
                                  : WatchdogOptions{}.stall_timeout_ns;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(stall * 2 + 50'000'000ull);
  while (!done()) {
    if (health != nullptr && health->get() == MonitorHealth::Failed) {
      return false;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

}  // namespace bw::runtime
