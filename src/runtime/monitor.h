// The BLOCKWATCH runtime monitor (paper Section III-B): a dedicated thread
// that drains per-program-thread lock-free queues, files reports into a
// two-level hash table keyed by (call-site context + static branch id,
// outer-loop iteration vector), checks every branch instance once all
// threads reported (eager path) or at end of the parallel section
// (finalize path), and records violations.
//
// The Monitor owns one detail::Sink (consumer.h) with one consumer and
// runs that consumer's visits on its own thread. Everything else — the
// producer path, the publish points, the recovery calls, teardown and the
// stats fold — is the sink's, the same code a MonitorService session is
// built from: one ring of single reports per program thread, drained 256
// reports per burst.
//
// Publication. send() stages each report and publishes its thread's run
// to the monitor thread every SpscQueue::kStride (32) reports;
// flush(thread) publishes the rest, and the VM flushes at every barrier
// arrival, at its periodic poll, and when the thread leaves the section
// (normally, by a trap or at a phase exit). A producer that finds its
// ring full publishes before it backs off, and stop(), quiesce() and
// finalize_section() publish every ring, the producers being quiescent
// there; reset_epoch() discards what they staged. A report therefore
// reaches the consumer within 32 reports of its thread or by the
// thread's next barrier, whichever comes first.
//
// Resilience (see resilience.h): producers never block indefinitely on a
// full queue — a bounded backoff gives up once the consumer's beat has
// also stood still for the give-up grace, drops the report (counted
// per-thread) and degrades the monitor's health; the watchdog trips the
// sticky Failed state once that beat has stood still for its deadline,
// after which producers stop queueing and the program continues
// unprotected. The stall hook freezes the consumer: it stops draining and
// beating, and the reports still queued at stop() are drops under
// Degraded health. In Degraded/Failed health the checker treats
// instances with missing observations as unverifiable (skipped, counted)
// instead of risking a false violation built on partial data.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/branch_table.h"
#include "runtime/checker.h"
#include "runtime/monitor_interface.h"
#include "runtime/report.h"
#include "runtime/resilience.h"
#include "runtime/spsc_queue.h"

namespace bw::runtime {

namespace detail {
class Sink;  // consumer.h
}  // namespace detail

struct MonitorOptions {
  /// Per-thread ring size hint. Each ring holds the next power of two
  /// above the hint, minus one: 1 << 14 gives 32767 reports.
  std::size_t queue_capacity = 1 << 14;
  /// Soft cap on pending (incomplete) instances per level-1 bucket; beyond
  /// it the oldest instances are checked against whatever subset reported
  /// and evicted (subset checks are sound; see DESIGN.md).
  std::size_t max_pending_per_branch = 1 << 15;
  /// When false the monitor drains the queues but performs no checks —
  /// the paper's 32-thread measurement configuration.
  bool perform_checks = true;
  /// Producer policy for a full front-end queue.
  BackoffPolicy backoff;
  /// Heartbeat deadline after which producers declare the monitor dead.
  WatchdogOptions watchdog;
  /// Seal a checksum into every report at send() and discard any popped
  /// report that fails verification (QueueCorrupt defence). Off by
  /// default: it costs a few ns per report on the hot path.
  bool validate_reports = false;
  /// Consumer-side fault injection (campaign/tests/bench only).
  MonitorFaultHooks fault_hooks;
  /// Adaptive sampled monitoring (see sampling.h). Off by default: every
  /// instance is checked and the controller is never consulted.
  SamplingOptions sampling;
};

struct MonitorStats {
  std::uint64_t reports_processed = 0;
  std::uint64_t instances_checked = 0;
  std::uint64_t instances_evicted = 0;
  /// Instances left unchecked because observations were missing while the
  /// monitor was degraded (unverifiable, not violations).
  std::uint64_t instances_skipped = 0;
  std::uint64_t violations = 0;
  /// Reports lost end to end: producer give-ups plus consumer-side drops.
  std::uint64_t dropped_reports = 0;
  /// Popped reports discarded by checksum validation.
  std::uint64_t reports_rejected = 0;
  /// Reports intentionally discarded by a recovery reset_epoch (they
  /// belonged to a rolled-back timeline; NOT counted as drops and never
  /// a degradation signal).
  std::uint64_t reports_rolled_back = 0;
  /// Fault hooks that actually fired (campaign activation signal).
  std::uint64_t hooks_fired = 0;
  /// Adaptive sampling (all zero / rate 1 when sampling is off).
  std::uint64_t reports_sampled_out = 0;
  std::uint64_t sampling_degrades = 0;
  std::uint64_t sampling_snap_backs = 0;
  std::uint32_t sampling_rate_final = 1;
  std::uint32_t sampling_rate_peak = 1;
  /// Multi-tenant backpressure (MonitorService sessions only; always zero
  /// for the legacy Monitor). Reports discarded because the tenant was
  /// over its queued-report quota, the number of distinct over-quota
  /// episodes, and the high-water mark of queued reports.
  std::uint64_t reports_throttled = 0;
  std::uint64_t throttle_events = 0;
  std::uint64_t quota_peak = 0;
  /// Producer give-up drops, indexed by program thread id.
  std::vector<std::uint64_t> dropped_per_thread;
};

class Monitor : public BranchSink {
 public:
  Monitor(unsigned num_threads, MonitorOptions options = {});
  ~Monitor() override;

  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;

  /// Launch the monitor thread. Must be called before any report is sent.
  void start();

  /// Signal end of the parallel section, drain everything, finalize
  /// residual instances, and join the monitor thread. Idempotent.
  void stop();

  /// Producer API (called from program thread `thread`): stage a report
  /// in the thread's ring, backing off briefly if the ring is full and
  /// dropping the report once the backoff budget is exhausted (never
  /// blocks indefinitely). Publishes the thread's staged reports to the
  /// monitor thread every SpscQueue::kStride reports.
  void send(const BranchReport& report) override;

  /// Publishes what program thread `thread` has staged (BranchSink).
  void flush(std::uint32_t thread) override;

  /// True once any check has failed. Safe to poll from any thread; the
  /// program treats this as the paper's "raise an exception" signal.
  bool violation_detected() const override;
  std::uint64_t violation_count() const;

  MonitorHealth health() const override;
  SamplingController* sampler() override;

  // --- Recovery protocol (see monitor_interface.h for the contract) ---
  // Commands go through the consumer's mailbox (consumer.h): the monitor
  // thread executes them between ring bursts (the tables are
  // consumer-owned; no locking), with the caller spin-waiting on its ack
  // under a deadline derived from the watchdog stall budget.
  bool supports_recovery() const override { return true; }
  bool quiesce() override;
  bool finalize_section() override;
  bool reset_epoch() override;

  /// Only valid after stop(): the aggregate counters are consumer-owned
  /// and written without synchronization (the per-thread drop counters
  /// are atomics, but the snapshot as a whole is not). Use health() for
  /// a mid-run signal.
  const std::vector<Violation>& violations() const;
  MonitorStats stats() const;

  unsigned num_threads() const;

 private:
  /// The one-consumer sink (consumer.h) the monitor thread drains.
  std::unique_ptr<detail::Sink> sink_;
  std::thread thread_;
  std::atomic<bool> started_{false};
};

}  // namespace bw::runtime
