// Resilience primitives for the runtime monitor: the monitor is trusted
// infrastructure, so every queue interaction and monitor thread carries an
// explicit failure policy instead of the original "spin forever on a full
// ring" behaviour (which turned a stalled monitor into a program-wide
// deadlock).
//
//   * BackoffPolicy  — producer-side policy for a full front-end queue:
//     spin, then yield, then — once the consumer's beat has also stood
//     still for the give-up grace — give up and DROP the report (counted
//     per-thread). Dropping is safe: every checker is sound on subsets,
//     and once degraded the monitor additionally skips instances with
//     missing observations.
//   * MonitorHealth  — sticky Healthy -> Degraded -> Failed state machine.
//     Degraded: at least one report was dropped/rejected; detection
//     continues but incomplete instances are treated as unverifiable.
//     Failed: the watchdog found the monitor heartbeat stalled past its
//     deadline; producers stop queueing entirely and the program runs on
//     unprotected (availability over coverage).
//   * WatchdogOptions — heartbeat deadline. Every consumer moves a beat
//     per sink it drains (consumer.h); the producer slow path trips
//     Failed when that beat makes no progress for the whole deadline.
//   * MonitorFaultHooks — consumer-side fault injection for the campaign's
//     monitor-path fault models (FaultType::MonitorStall / QueueCorrupt /
//     ReportDrop) and for the slow-consumer benchmark.
//
// Each decision of that policy is defined once, below. The one sink of
// consumer.h calls it for both backends (the legacy Monitor and a
// MonitorService session), which differ only in topology:
//
//   * raise_health()        — the one health edge: raise, and on a won
//                             transition snap the sampler back.
//   * run_backoff()         — the one spin -> yield ladder (ring pushes
//                             and the service's quota gate).
//   * StallClock            — the clock a producer's give-up consults:
//                             the give-up grace and the watchdog.
//
// The pop screen (TenantCore::screen_popped), the producer give-up path
// (Sink::push_or_give_up) and the recovery deadline (bounded_wait) live
// in consumer.h.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "runtime/sampling.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

enum class MonitorHealth : std::uint8_t {
  Healthy = 0,   // no report lost; full detection guarantees hold
  Degraded = 1,  // >=1 report dropped/rejected; subset guarantees only
  Failed = 2,    // heartbeat stalled past deadline; monitoring abandoned
};

inline const char* to_string(MonitorHealth health) {
  switch (health) {
    case MonitorHealth::Healthy: return "healthy";
    case MonitorHealth::Degraded: return "degraded";
    case MonitorHealth::Failed: return "failed";
  }
  return "<bad-health>";
}

/// Sticky, monotone health cell: transitions only move toward Failed, so
/// any thread may raise() concurrently without locks and nobody can mask a
/// previous degradation.
class HealthCell {
 public:
  MonitorHealth get() const {
    return health_.load(std::memory_order_acquire);
  }

  /// Returns true iff THIS call won an upward transition (exactly one
  /// caller per edge), so callers can chain edge-triggered reactions —
  /// e.g. the SamplingController snaps back to full checking on the
  /// Healthy->Degraded edge — without a second source of truth.
  bool raise(MonitorHealth to) {
    MonitorHealth cur = health_.load(std::memory_order_relaxed);
    while (static_cast<std::uint8_t>(cur) < static_cast<std::uint8_t>(to)) {
      if (health_.compare_exchange_weak(cur, to, std::memory_order_acq_rel,
                                        std::memory_order_relaxed)) {
        // Exactly one thread wins each upward transition, so the event
        // stream records each Healthy->Degraded->Failed edge once.
        telemetry::counter_add(telemetry::Counter::HealthTransitions);
        telemetry::record_event(telemetry::EventKind::HealthTransition,
                                telemetry::Phase::MonitorCheck,
                                static_cast<std::uint64_t>(cur),
                                static_cast<std::uint64_t>(to));
        return true;
      }
    }
    return false;
  }

 private:
  std::atomic<MonitorHealth> health_{MonitorHealth::Healthy};
};

/// What a producer does when its front-end ring is full.
struct BackoffPolicy {
  /// Busy retry iterations before the first yield (cheap; covers the
  /// common "monitor is one burst behind" case).
  std::uint32_t spins = 64;
  /// Yield-and-retry iterations after the spins. With ~1us per yield the
  /// default budget is a few milliseconds of patience. A spent ladder is
  /// not yet a give-up: a yield returns at once on an idle core, so the
  /// ladder repeats until the consumer's beat has stood still for
  /// give_up_grace_ns() (a live consumer that is merely preempted or
  /// behind never costs a drop).
  std::uint32_t yields = 4096;
  /// When false, reproduce the original unbounded spin (never give up,
  /// never drop). Deadlock-prone under a stalled monitor; kept only as the
  /// baseline for bench/bw_monitor_resilience.
  bool bounded = true;
};

struct WatchdogOptions {
  bool enabled = true;
  /// Heartbeat silence (observed from a producer's give-up slow path)
  /// after which the monitor is declared dead and health trips Failed.
  std::uint64_t stall_timeout_ns = 250'000'000;  // 250 ms
};

/// Consumer-side fault injection, applied by the monitor thread at the
/// pop site (index counts are 1-based over popped reports; 0 disables).
/// These model faults in the detection path itself, mirroring how the
/// campaign models faults in application branches.
struct MonitorFaultHooks {
  /// When the Nth popped report passes the screen, freeze the consumer's
  /// tenant: no draining, no beat; what is still queued at stop() or
  /// close() is dropped (FaultType::MonitorStall). The report itself is
  /// still processed.
  std::uint64_t stall_after_reports = 0;
  /// Flip `corrupt_bit` (mod 8*sizeof(BranchReport)) in the Nth popped
  /// report before processing it (FaultType::QueueCorrupt).
  std::uint64_t corrupt_report_index = 0;
  unsigned corrupt_bit = 0;
  /// Silently discard the Nth popped report (FaultType::ReportDrop).
  std::uint64_t drop_report_index = 0;
  /// Defer the consumer's next visit by this much per report it filed: a
  /// deterministic slow-consumer load for the resilience benchmark.
  std::uint64_t delay_ns_per_report = 0;
  /// Restrict the hooks above to the 0-based consumer (checker shard)
  /// with this index (kAllShards applies them to every shard, each
  /// counting its own pops). Lets tests wedge ONE shard and prove its
  /// siblings keep checking while health degrades. The single-consumer
  /// Monitor is shard 0.
  static constexpr std::uint32_t kAllShards = 0xffffffffu;
  std::uint32_t shard_filter = kAllShards;

  bool any() const {
    return stall_after_reports != 0 || corrupt_report_index != 0 ||
           drop_report_index != 0 || delay_ns_per_report != 0;
  }
};

/// The only caller of SamplingController::note_health_transition(): raise
/// `health` and, on the edge this call won, snap the sampler back to full
/// checking.
inline void raise_health(HealthCell& health, SamplingController& sampler,
                         MonitorHealth to) {
  if (health.raise(to)) sampler.note_health_transition();
}

/// The spin -> yield ladder behind every full ring and the quota gate.
/// Retries `try_once()` `spins` times, then once after each yield, and
/// polls `stop_early()` every 64 yields. Returns whether `try_once()`
/// succeeded; false means the caller gives up. An unbounded policy
/// retries until success or `stop_early()`.
template <typename TryOnce, typename StopEarly>
inline bool run_backoff(const BackoffPolicy& policy, TryOnce&& try_once,
                        StopEarly&& stop_early) {
  for (std::uint32_t i = 0; i < policy.spins; ++i) {
    if (try_once()) return true;
  }
  std::uint32_t yielded = 0;
  while (!policy.bounded || yielded < policy.yields) {
    std::this_thread::yield();
    if (try_once()) return true;
    ++yielded;
    if ((yielded & 63) == 0 && stop_early()) return false;
  }
  return false;
}

/// How long a consumer's beat must stand still before a producer whose
/// backoff ladder ran out drops: a quarter of the watchdog deadline, so
/// a drop (Degraded) still comes before Failed, and at most 50 ms, so a
/// deadline set long to stay Degraded does not stretch the first drop.
/// A disabled watchdog lends its default deadline, as in bounded_wait().
inline std::uint64_t give_up_grace_ns(const WatchdogOptions& watchdog) {
  const std::uint64_t stall = watchdog.enabled
                                  ? watchdog.stall_timeout_ns
                                  : WatchdogOptions{}.stall_timeout_ns;
  return std::min<std::uint64_t>(stall / 4, 50'000'000);
}

/// One producer's clock against one consumer's beat counter (consumer.h
/// Mailbox). Read only from the give-up slow path, so successful sends
/// never touch a clock.
class StallClock {
 public:
  /// True once `beat` has not moved for `ns`, as seen by this clock's
  /// earlier calls; a beat that moved restarts the count.
  bool frozen_for(std::uint64_t beat, std::uint64_t ns) {
    const auto now = std::chrono::steady_clock::now();
    if (beat != last_beat_) {
      last_beat_ = beat;
      since_ = now;
      return false;
    }
    const auto stalled =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - since_)
            .count();
    return stalled >= 0 && static_cast<std::uint64_t>(stalled) >= ns;
  }

  /// True once `beat` has not moved for the whole stall deadline; always
  /// false with the watchdog disabled.
  bool expired(std::uint64_t beat, const WatchdogOptions& watchdog) {
    return watchdog.enabled && frozen_for(beat, watchdog.stall_timeout_ns);
  }

 private:
  std::uint64_t last_beat_ = ~std::uint64_t{0};
  std::chrono::steady_clock::time_point since_{};
};

}  // namespace bw::runtime
