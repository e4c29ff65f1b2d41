// The consumer of the runtime monitor (paper Section III-B, Fig. 4),
// written once: visit each producer's ring in turn, drain a burst, screen
// and file each report into the two-level table, check, and finalize at
// section end. The legacy Monitor runs one consumer over its program
// threads' rings; a MonitorService runs one per shard, visiting the live
// session's tenant on that shard. Both run the pop screen and
// filing (TenantCore); the visit with its beat, command mailbox, stall
// freeze, delay deferral, burst drain and command executor (Tenant); the
// quiesce predicate (quiesce_sink); the recovery caller's post
// (post_and_wait); the producer give-up path (push_or_give_up) and the
// recovery wait (bounded_wait). Both wires are the same too: each producer
// stages single reports into its ring and publishes them in runs, and the
// consumer drains 256 reports per ring per visit. What stays per topology
// is the service's routing, quota and live-session slot.
//
// Internal: only monitor.cpp and monitor_service.cpp include this header.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "runtime/branch_table.h"
#include "runtime/monitor.h"  // MonitorStats
#include "runtime/resilience.h"
#include "runtime/spsc_queue.h"
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

/// A recovery or teardown command. Detach ends a session, and stop() the
/// Monitor.
enum class Command : int { None = 0, Reset = 1, Finalize = 2, Detach = 3 };

/// A sink's command mailbox: one sequence broadcast, acked by each
/// consumer once executed. Each consumer's cell also holds the beat it
/// moves while alive and not frozen, which the producers' watchdogs and
/// quiesce_sink() read. The Monitor has one consumer; a session one per
/// shard.
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
  /// Consumer `consumer` executed the sink's detach: its tenant is gone
  /// and must never be rebuilt.
  bool detached(unsigned consumer) const {
    return acked(consumer, seq.load(std::memory_order_acquire)) &&
           kind.load(std::memory_order_acquire) == Command::Detach;
  }

  struct alignas(64) Cell {
    std::atomic<std::uint64_t> beat{0};
    std::atomic<std::uint64_t> ack{0};
  };
  std::atomic<Command> kind{Command::None};
  std::atomic<std::uint64_t> seq{0};
  std::vector<Cell> cells;
};

/// One consumer's visits to one sink: the rings it drains, kBurst reports
/// at a time, the mailbox it serves and the core it files into, on that
/// consumer's thread. `release(n)` runs after each burst of n popped
/// reports (the service's quota accounting).
template <typename Release>
class Tenant {
 public:
  /// Reports drained from one ring per visit: a bound that keeps the
  /// round-robin over the rings fair.
  static constexpr std::size_t kBurst = 256;

  Tenant(TenantCore& core, Mailbox& mailbox, unsigned consumer,
         RingMatrix<BranchReport>& rings, Release release)
      : core_(core),
        mailbox_(mailbox),
        consumer_(consumer),
        rings_(rings),
        release_(release) {}

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
    for (unsigned p = 0; p < rings_.producers() && !frozen_; ++p) {
      beat();
      popped |= drain(rings_.at(p, consumer_), /*file=*/true) != 0;
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
    const std::uint64_t seq = mailbox_.seq.load(std::memory_order_acquire);
    if (seq == seen_) return;
    execute(mailbox_.kind.load(std::memory_order_acquire));
    seen_ = seq;
    mailbox_.cells[consumer_].ack.store(seq, std::memory_order_release);
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
        core_.sink.raise(MonitorHealth::Degraded);
      }
      telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                                "monitor.finalize");
      core_.table.finalize(core_.sink.degraded());
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
      for (unsigned p = 0; p < rings_.producers(); ++p) {
        pass += drain(rings_.at(p, consumer_), file);
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
    if (popped != 0) release_(popped);
    return popped;
  }

  void beat() {  // one writer per cell: a store, no read-modify-write
    std::atomic<std::uint64_t>& beat = mailbox_.cells[consumer_].beat;
    beat.store(beat.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
  }

  TenantCore& core_;
  Mailbox& mailbox_;
  const unsigned consumer_;
  RingMatrix<BranchReport>& rings_;
  Release release_;
  std::uint64_t seen_ = 0;
  bool frozen_ = false;  // the stall hook fired: no draining, no beat
  bool detached_ = false;
  std::chrono::steady_clock::time_point resume_at_{};
};

/// The producer slow path once `try_push()` of one report from `thread`
/// to consumer `shard` has failed on a full ring: count and log the
/// pressure, then the backoff ladder (cut short by Failed health under a
/// bounded policy), repeated while `beat` has moved within the give-up
/// grace. On give-up the report is a drop, health degrades, and fails once
/// `beat` has been frozen for the watchdog deadline. Returns whether the
/// push went through.
template <typename TryPush>
bool push_or_give_up(TryPush&& try_push, SinkCells sink,
                     const BackoffPolicy& backoff,
                     const WatchdogOptions& watchdog, std::uint32_t thread,
                     unsigned shard, std::atomic<std::uint64_t>& dropped,
                     StallClock& stall,
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
      dropped.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter_add(telemetry::Counter::ReportsDropped);
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

/// The quiesce predicate of every sink: every ring empty, then every
/// consumer's beat advanced twice, so any report popped before the rings
/// emptied has been filed and checked. A frozen consumer never beats: its
/// sink runs out the deadline. Requires quiescent producers.
inline bool quiesce_sink(const RingMatrix<BranchReport>& rings,
                         const Mailbox& mailbox,
                         const WatchdogOptions& watchdog,
                         const HealthCell& health) {
  std::vector<std::uint64_t> empty_beats;
  return bounded_wait(
      [&] {
        if (!rings.empty()) {
          empty_beats.clear();
          return false;
        }
        if (empty_beats.empty()) {
          for (const Mailbox::Cell& cell : mailbox.cells) {
            empty_beats.push_back(cell.beat.load(std::memory_order_acquire));
          }
          return false;
        }
        for (std::size_t k = 0; k < mailbox.cells.size(); ++k) {
          if (mailbox.cells[k].beat.load(std::memory_order_acquire) <
              empty_beats[k] + 2) {
            return false;
          }
        }
        return true;
      },
      watchdog, &health);
}

/// The recovery caller's side of the mailbox: post `command` to every
/// consumer and wait (bounded) for every ack. False on a Failed sink or a
/// timeout; a timed-out command is superseded by a no-op, so a consumer
/// that never claimed it cannot clobber a later epoch with a stale reset.
inline bool post_and_wait(Mailbox& mailbox, Command command,
                          const WatchdogOptions& watchdog,
                          const HealthCell& health) {
  if (health.get() == MonitorHealth::Failed) return false;
  const std::uint64_t seq = mailbox.post(command);
  if (bounded_wait([&] { return mailbox.all_acked(seq); }, watchdog,
                   &health)) {
    return true;
  }
  mailbox.post(Command::None);
  return false;
}

}  // namespace bw::runtime
