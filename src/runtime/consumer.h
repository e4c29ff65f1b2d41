// The one sink of the runtime monitor (paper Section III-B, Fig. 4),
// written once for both monitors: per-producer rings feeding consumers
// that visit each ring in turn, drain a burst, screen and file each report
// into a two-level table, check, and finalize at section end.
//
// A detail::Sink owns everything one protected program touches: a ring
// per (program thread, consumer), each consumer's core and visits, the
// command mailbox, health, sampler, violation counter, quota cells and
// the producer slots. Its methods are the whole protocol: the producer
// path (send: the Failed drop, the sampler, the seal, staging, the
// give-up ladder and the publish at publish_at), the publish points
// (flush, and a quota claim per run when the sink has a quota), the
// recovery calls (quiesce and finalize_section publish what the producers
// staged first; reset_epoch discards it as rolled back), teardown and the
// stats fold. The two shapes:
//
//   * the legacy Monitor owns one Sink with one consumer;
//   * a MonitorService session is a Sink with K consumers, one per shard;
//     the service adds routing (shard_of), admission of one session at a
//     time and the in-flight guard that lets close() race the session's
//     own producers.
//
// Either way the sink runs its own consumers: start() spawns one thread
// per consumer, each running the one consumer loop (visit, yield when
// nothing was popped, until the consumer executes the detach), and the
// teardown that wins joins them once they acked it.
//
// A report is published with its thread's run every SpscQueue::kStride
// reports (or the quota, when that is smaller), on flush(thread), on a
// full ring, and by the recovery calls and teardown. A health change is
// not a publish point: the consumer judges the same reports at the next
// one.
//
// Internal: only sink.cpp, monitor.cpp and monitor_service.cpp include
// this header.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/branch_table.h"
#include "runtime/monitor_service.h"  // SessionOptions, MonitorStats
#include "runtime/resilience.h"
#include "runtime/spsc_queue.h"
#include "support/diagnostics.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime::detail {

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

/// A recovery or teardown command. Detach ends the sink.
enum class Command : int { None = 0, Reset = 1, Finalize = 2, Detach = 3 };

/// A sink's command mailbox: one sequence broadcast, acked by each
/// consumer once executed. Each consumer's cell also holds the beat it
/// moves while alive and not frozen, which the producers' watchdogs and
/// Sink::quiesce read.
struct Mailbox {
  explicit Mailbox(unsigned consumers) : cells(consumers) {}

  /// Broadcasts `command` to every consumer; returns its sequence number.
  /// One poster at a time (the BranchSink single-leader contract).
  std::uint64_t post(Command command) {
    kind.store(command, std::memory_order_relaxed);
    return seq.fetch_add(1, std::memory_order_release) + 1;
  }
  bool acked(unsigned consumer, std::uint64_t at) const {
    return cells[consumer].ack.load(std::memory_order_acquire) >= at;
  }
  bool all_acked(std::uint64_t at) const {
    for (unsigned k = 0; k < cells.size(); ++k) {
      if (!acked(k, at)) return false;
    }
    return true;
  }

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> beat{0};
    std::atomic<std::uint64_t> ack{0};
  };
  std::atomic<Command> kind{Command::None};
  std::atomic<std::uint64_t> seq{0};
  std::vector<Cell> cells;
};

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

/// Where a sink stands: live, being torn down, or torn down.
enum SinkPhase { kActive = 0, kDraining = 1, kDetached = 2 };

/// Producer-thread-private state, one slot per program thread.
/// Cacheline-aligned; only `dropped` and `in_flight` are read by other
/// threads.
struct alignas(64) ProducerSlot {
  std::atomic<std::uint64_t> dropped{0};
  /// The service's Dekker guard against a racing teardown: a session's
  /// producer call increments it (seq_cst) and then checks the phase;
  /// teardown latches the phase and then waits for zero, so the staged
  /// runs are never mutated from two threads. The Monitor's producers
  /// never raise it: its stop() follows them by contract.
  std::atomic<std::uint32_t> in_flight{0};
  /// Edge-detector for throttle episodes (one event per entry into the
  /// over-quota regime, not per discarded run).
  bool throttling = false;
  /// Per-consumer watchdog, run against the sink's beat on that consumer
  /// (a frozen tenant fails its sink, never a shard). The quota gate
  /// reads it too.
  std::vector<StallClock> stall;
  /// The quota gate's give-up clock, run against released_reports.
  StallClock quota_stall;
};

class TenantCore;
class Tenant;

/// One sink: see the header comment. Producer calls follow the BranchSink
/// threading contract; the recovery calls and teardown are single-caller
/// with every producer quiescent (a session's teardown excepted, which the
/// service's in-flight guard orders against them).
class Sink {
 public:
  /// `shape` gives the consumers (num_shards), the ring size, the backoff
  /// ladder and the watchdog; `options` the rest. `id` names the sink in
  /// telemetry (0 for the Monitor).
  Sink(SessionId id, const SessionOptions& options,
       const MonitorServiceOptions& shape);
  ~Sink();

  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  // --- Producer side (program thread `report.thread`) ---

  /// Stages `report` in its thread's ring for `consumer`, backing off on
  /// a full ring and dropping it once the backoff gives up; publishes the
  /// run once it holds publish_at reports.
  void send(const BranchReport& report, unsigned consumer) {
    BW_INTERNAL_CHECK(report.thread < options.num_threads,
                      "report from out-of-range thread");
    ProducerSlot& slot = producers[report.thread];
    if (health.get() == MonitorHealth::Failed) {
      // Monitoring abandoned: count the loss, let the program run on.
      slot.dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (sampler.active() &&
        !sampler.should_check(report.ctx_hash, report.static_id,
                              report.iter_hash)) {
      return;  // instance deterministically sampled out on every thread
    }
    telemetry::counter_add(telemetry::Counter::ReportsSent);
    SpscQueue<BranchReport>& ring = rings.at(report.thread, consumer);
    BranchReport sealed;
    const BranchReport* payload = &report;
    if (options.validate_reports) {
      sealed = report;
      seal_report(sealed);
      payload = &sealed;
    }
    auto try_stage = [&] { return ring.try_stage(*payload); };
    if (!try_stage()) {
      // The consumer can only make room behind what it sees.
      publish_run(report.thread, consumer);
      if (!push_or_give_up(try_stage, report.thread, consumer)) return;
    }
    if (ring.staged() >= publish_at) publish_run(report.thread, consumer);
  }

  /// Publishes what program thread `thread` has staged (BranchSink).
  void flush(std::uint32_t thread) {
    BW_INTERNAL_CHECK(thread < options.num_threads,
                      "flush from out-of-range thread");
    publish_runs(thread);
  }

  /// Spawns one thread per consumer. Must precede any send(); a second
  /// call, or one after teardown(), does nothing. Until it runs nothing
  /// was sent: quiesce() is trivially true, and finalize_section() and
  /// reset_epoch() are false, since no consumer would ever ack them.
  void start();

  // --- Consumer side ---

  /// Releases `count` reports a consumer filed from the quota.
  void release(std::uint64_t count) {
    if (quota == 0) return;
    queued_reports.fetch_sub(count, std::memory_order_release);
    released_reports.fetch_add(count, std::memory_order_relaxed);
  }

  // --- Recovery (BranchSink contract: producers quiescent) ---

  /// Publishes what the producers staged, then waits (bounded) until every
  /// ring is empty and every consumer beat twice since.
  bool quiesce();
  /// Publishes what the producers staged, then runs the end-of-section
  /// pass on every consumer.
  bool finalize_section();
  /// Discards the published reports (on the consumers), the pending
  /// instances and violations, then the staged runs, all counted as
  /// rolled back.
  bool reset_epoch();

  /// Latches the phase, waits out in-flight producer calls, publishes the
  /// staged runs, posts the detach, waits (bounded) for every ack, merges
  /// the acked consumers' results and joins the consumer threads. Returns
  /// false, once the winner has finished, to every caller but the first.
  bool teardown();

  /// Only valid after teardown(). Producer drop counters are re-read on
  /// every call, so a send() that raced teardown still shows up here.
  MonitorStats stats() const;
  const std::vector<Violation>& violations() const {
    return final_violations_;
  }

  bool violation_detected() const {
    return violation_count.load(std::memory_order_acquire) != 0;
  }
  bool degraded() const { return health.get() != MonitorHealth::Healthy; }
  void raise(MonitorHealth to) { raise_health(health, sampler, to); }

  const SessionId id;
  const SessionOptions options;
  const BackoffPolicy backoff;
  const WatchdogOptions watchdog;
  const std::uint64_t quota;  // 0 = none
  /// A staged run is published once it holds this many reports: a stride,
  /// or the whole quota when that is smaller, so that one run can always
  /// claim it.
  const std::size_t publish_at;

  std::vector<ProducerSlot> producers;
  /// One ring per (program thread, consumer): rings.at(thread, k). The
  /// reports its producer staged but has not published are the lane's run.
  RingMatrix<BranchReport> rings;
  /// Recovery and detach commands, and each consumer's beat (see above).
  Mailbox mailbox;
  HealthCell health;
  SamplingController sampler;
  std::atomic<std::uint64_t> violation_count{0};
  std::atomic<int> phase{kActive};

 private:
  void publish_runs(std::uint32_t thread) {
    for (unsigned k = 0; k < mailbox.cells.size(); ++k) {
      publish_run(thread, k);
    }
  }
  /// Publishes every producer's staged runs; the producers are quiescent.
  void publish() {
    for (std::uint32_t t = 0; t < options.num_threads; ++t) publish_runs(t);
  }

  /// Publishes the lane's staged run: dropped on a Failed sink, discarded
  /// as throttled when the quota refuses it.
  void publish_run(std::uint32_t thread, unsigned consumer) {
    SpscQueue<BranchReport>& ring = rings.at(thread, consumer);
    const std::uint32_t count = static_cast<std::uint32_t>(ring.staged());
    if (count == 0) return;
    if (health.get() == MonitorHealth::Failed) {
      producers[thread].dropped.fetch_add(count, std::memory_order_relaxed);
      ring.discard_staged();
      return;
    }
    if (quota != 0 && !claim_quota(thread, consumer, count)) {
      ring.discard_staged();
      return;
    }
    ring.publish();
  }

  /// The quota gate of one run (sink.cpp); on a refusal it has already
  /// counted the run as throttled.
  bool claim_quota(std::uint32_t thread, unsigned consumer,
                   std::uint32_t count);

  /// The producer slow path once staging one report from `thread` for
  /// `consumer` has failed on a full ring: count and log the pressure,
  /// then the backoff ladder (cut short by Failed health under a bounded
  /// policy), repeated while the consumer's beat has moved within the
  /// give-up grace. On give-up the report is a drop, health degrades, and
  /// fails once the beat has been frozen for the watchdog deadline.
  /// Returns whether the stage went through.
  template <typename TryStage>
  bool push_or_give_up(TryStage&& try_stage, std::uint32_t thread,
                       unsigned consumer) {
    telemetry::counter_add(telemetry::Counter::QueueFullEvents);
    telemetry::record_event(telemetry::EventKind::QueueHighWater,
                            telemetry::Phase::MonitorCheck, thread, consumer);
    sampler.note_pressure();
    auto failed = [&] {
      return backoff.bounded && health.get() == MonitorHealth::Failed;
    };
    ProducerSlot& slot = producers[thread];
    StallClock& stall = slot.stall[consumer];
    const std::atomic<std::uint64_t>& beat = mailbox.cells[consumer].beat;
    // A spent ladder measures yields, not the consumer: on an idle core the
    // yields return at once while a live consumer sits preempted or works
    // through its other rings. Give up only once its beat stands still.
    const std::uint64_t grace = give_up_grace_ns(watchdog);
    while (!run_backoff(backoff, try_stage, failed)) {
      if (failed() ||
          stall.frozen_for(beat.load(std::memory_order_relaxed), grace)) {
        slot.dropped.fetch_add(1, std::memory_order_relaxed);
        telemetry::counter_add(telemetry::Counter::ReportsDropped);
        raise(MonitorHealth::Degraded);
        if (stall.expired(beat.load(std::memory_order_relaxed), watchdog)) {
          raise(MonitorHealth::Failed);
        }
        return false;
      }
    }
    return true;
  }

  /// Posts `command` to every consumer and waits (bounded) for every ack.
  /// False on a Failed sink or a timeout; a timed-out command is
  /// superseded by a no-op, so a consumer that never claimed it cannot
  /// clobber a later epoch with a stale reset.
  bool post_and_wait(Command command);

  /// Merges the consumers that acked detach `seq`, the quota accounting
  /// and the producer counters into the final results, freeing each merged
  /// core. A consumer that never acked may still be filing: skipped.
  void merge(std::uint64_t seq);

  /// Folds the sampler's stats and each producer's give-up counter into
  /// `m`. Drops are folded as the change since the last fold, so a merged
  /// snapshot can be folded again to pick up a send that raced teardown.
  void fold_producers(MonitorStats& m) const;

  /// Each consumer's core. A consumer stops touching its core once it
  /// acks the detach, whose release-store orders its last writes before
  /// the merge.
  std::vector<std::unique_ptr<TenantCore>> cores_;
  /// Each consumer's visits, made only by that consumer's thread. Kept
  /// until the sink dies: a consumer reads its tenant once more right
  /// after acking the detach, before teardown joins it.
  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// One thread per consumer once start() ran; joined by teardown.
  std::vector<std::thread> consumers_;

  /// Reports published but not yet filed, across all consumers: the value
  /// the quota gates on. Incremented when a run claims quota, decremented
  /// after each burst is filed.
  std::atomic<std::uint64_t> queued_reports{0};
  /// Reports the consumers have taken off queued_reports, ever: the beat a
  /// producer waiting at the quota gate reads (monotone, unlike the quota
  /// itself, which other producers refill).
  std::atomic<std::uint64_t> released_reports{0};
  std::atomic<std::uint64_t> quota_peak{0};
  std::atomic<std::uint64_t> reports_throttled{0};
  std::atomic<std::uint64_t> throttle_events{0};

  // Final merged results; written by teardown before phase -> Detached.
  MonitorStats final_stats_;
  std::vector<Violation> final_violations_;
};

/// One consumer's slice of one sink. Owned by exactly one consumer thread.
class TenantCore {
 public:
  /// The fault hooks apply unless the sink's `shard_filter` names another
  /// consumer.
  TenantCore(Sink& sink, unsigned consumer)
      : sink(sink),
        table(sink.options.num_threads, sink.options.max_pending_per_branch,
              [this](const Violation&) {
                this->sink.violation_count.fetch_add(
                    1, std::memory_order_release);
                this->sink.sampler.note_violation();
              }),
        hooks(sink.options.fault_hooks),
        hooks_apply(hooks.shard_filter == MonitorFaultHooks::kAllShards ||
                    hooks.shard_filter == consumer),
        num_threads_(sink.options.num_threads),
        validate_(sink.options.validate_reports),
        perform_checks_(sink.options.perform_checks) {}

  /// Screens one popped report and files it unless discarded; the caller
  /// reacts to a Stall after the report is filed.
  PopVerdict file(BranchReport& report) {
    const PopVerdict verdict = screen_popped(report);
    if (verdict == PopVerdict::Discard) return verdict;
    ++reports_processed;
    if (perform_checks_) table.process(report, sink.degraded());
    return verdict;
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

  Sink& sink;
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

/// One consumer's visits to one sink: the rings it drains, kBurst reports
/// at a time, the mailbox it serves and the core it files into, on that
/// consumer's thread.
class Tenant {
 public:
  /// Reports drained from one ring per visit: a bound that keeps the
  /// round-robin over the rings fair.
  static constexpr std::size_t kBurst = 256;

  Tenant(Sink& sink, TenantCore& core, unsigned consumer)
      : sink_(sink), core_(core), consumer_(consumer) {}

  /// One visit: serve the mailbox, then, unless frozen or deferred, a
  /// beat and a burst from each producer's ring. A deferred visit beats
  /// once. Returns whether anything was popped.
  bool visit() {
    serve();
    if (frozen_ || detached_) return false;  // frozen: no draining, no beat
    if (resume_at_.time_since_epoch().count() != 0 &&
        std::chrono::steady_clock::now() < resume_at_) {
      beat();
      return false;
    }
    const std::uint64_t filed_before = core_.reports_processed;
    bool popped = false;
    for (unsigned p = 0; p < sink_.rings.producers() && !frozen_; ++p) {
      beat();
      popped |= drain(sink_.rings.at(p, consumer_), /*file=*/true) != 0;
    }
    // The delay hook defers the next visit by what this one filed: slow,
    // but never asleep to the mailbox.
    const std::uint64_t delay = core_.hooks.delay_ns_per_report;
    const std::uint64_t filed = core_.reports_processed - filed_before;
    if (core_.hooks_apply && delay != 0 && filed != 0) {
      resume_at_ = std::chrono::steady_clock::now() +
                   std::chrono::nanoseconds(delay * filed);
    }
    return popped;
  }

  bool detached() const { return detached_; }

 private:
  /// Executes the latest command posted since the last visit, then acks
  /// it; frozen or deferred tenants too.
  void serve() {
    Mailbox& mailbox = sink_.mailbox;
    const std::uint64_t seq = mailbox.seq.load(std::memory_order_acquire);
    if (seq == seen_) return;
    execute(mailbox.kind.load(std::memory_order_acquire));
    seen_ = seq;
    mailbox.cells[consumer_].ack.store(seq, std::memory_order_release);
  }

  /// The one executor. Reset drains unfiled (the reports belong to the
  /// timeline being rolled back) and forgets every pending instance and
  /// violation; health stays sticky. Finalize and detach drain and file,
  /// then run the end-of-section pass; what a frozen tenant never filed,
  /// or left when the stall fired during this drain, is dropped under
  /// degraded health.
  void execute(Command command) {
    if (command == Command::Reset) {
      core_.reports_rolled_back += drain_all(/*file=*/false);
      core_.table.clear();
    } else if (command != Command::None) {
      drain_all(/*file=*/true);
      if (frozen_) {
        core_.pops.dropped += drain_all(/*file=*/false);
        sink_.raise(MonitorHealth::Degraded);
      }
      telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                                "monitor.finalize");
      core_.table.finalize(sink_.degraded());
      detached_ = command == Command::Detach;
    }
  }

  /// Round-robin bursts until a pass pops nothing, as the visits file:
  /// draining one ring whole first would leave every instance of the
  /// others pending, and evict them. Returns the reports popped.
  std::uint64_t drain_all(bool file) {
    std::uint64_t popped = 0;
    std::uint64_t pass = 0;
    do {
      pass = 0;
      for (unsigned p = 0; p < sink_.rings.producers(); ++p) {
        pass += drain(sink_.rings.at(p, consumer_), file);
      }
      popped += pass;
    } while (pass != 0);
    return popped;
  }

  /// The one burst drain: files, in place, up to kBurst reports of `ring`
  /// when `file`, stopping right after the report on which the stall froze
  /// the tenant, and frees them with one store. Returns the reports popped.
  std::uint64_t drain(SpscQueue<BranchReport>& ring, bool file) {
    if (file && frozen_) return 0;
    const std::uint64_t popped =
        ring.consume(kBurst, [&](BranchReport& report) {
          if (!file) return true;
          if (core_.file(report) == PopVerdict::Stall) frozen_ = true;
          return !frozen_;
        });
    if (popped != 0) sink_.release(popped);
    return popped;
  }

  void beat() {  // one writer per cell: a store, no read-modify-write
    std::atomic<std::uint64_t>& beat = sink_.mailbox.cells[consumer_].beat;
    beat.store(beat.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

  Sink& sink_;
  TenantCore& core_;
  const unsigned consumer_;
  std::uint64_t seen_ = 0;
  bool frozen_ = false;  // the stall hook fired: no draining, no beat
  bool detached_ = false;
  std::chrono::steady_clock::time_point resume_at_{};
};

}  // namespace bw::runtime::detail
