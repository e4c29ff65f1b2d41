// Adaptive sampled monitoring: a SamplingController owned by a monitor
// (legacy or sharded) that decides, per branch instance, whether the
// instance is checked at all. While the overhead budget holds every
// instance is checked (rate 1); under sustained queue pressure the
// controller degrades along an explicit escalation ladder to
// deterministic 1-in-N sampling, and snaps back to full checking the
// moment anything anomalous is observed (a violation, a health
// transition, or an anomaly score above threshold) so detection latency
// stays bounded even in degraded mode.
//
// Determinism and soundness:
//
//   * Decisions are pure functions of (seed, ctx_hash, static_id,
//     iter_hash, current rate). Every program thread computing the same
//     instance identity reaches the same verdict with no coordination,
//     so at a stable rate an instance is either fully observed or not
//     observed at all. At rate 1 the decision short-circuits to "check"
//     — the controller-enabled monitor is verdict-byte-identical to an
//     unsampled monitor (tests/sampling_test.cpp proves it against the
//     differential harness kernels).
//   * A rate change mid-instance can only produce a PARTIAL instance,
//     which falls to the existing finalize/eviction subset checks —
//     sound by construction (every check holds on subsets) — so sampled
//     clean runs report zero false alarms at every rate.
//   * Adaptation bookkeeping is counter-based (decision counter, not
//     wall clock), so degrade/snap-back sequences under forced pressure
//     replay exactly in tests.
#pragma once

#include <atomic>
#include <cstdint>

namespace bw::runtime {

struct SamplingOptions {
  /// Master switch. Off (default): the monitor never consults the
  /// controller and behaves exactly as before this feature existed.
  bool enabled = false;
  /// When > 0, pin the rate to a fixed 1-in-N and disable all adaptation
  /// (no escalation, no snap-back). Benchmarks use this to hold a rate
  /// steady across a sweep; 1 pins full checking.
  std::uint32_t forced_rate = 0;
  /// First rung of the escalation ladder to start on (default 1 = full
  /// checking). Tests and benches start degraded (e.g. 64) to exercise
  /// snap-back deterministically without manufacturing queue pressure.
  std::uint32_t initial_rate = 1;
  /// Rate multiplier per escalation rung: 1 -> f -> f^2 ... <= max_rate.
  std::uint32_t escalation_factor = 8;
  /// Ladder ceiling (clamped to >= 1).
  std::uint32_t max_rate = 64;
  /// Pressure events (queue-full observations fed by the producers' slow
  /// path) accumulated before climbing one rung.
  std::uint32_t degrade_threshold = 16;
  /// Consecutive pressure-free decisions before stepping DOWN one rung —
  /// the overhead budget re-checking itself.
  std::uint64_t calm_period = 1 << 15;
  /// Decisions after a snap-back during which escalation is suppressed,
  /// so one burst of pressure cannot immediately re-degrade a monitor
  /// that just saw a violation.
  std::uint64_t snapback_hold = 1 << 15;
  /// Anomaly events (rejected/corrupted reports) tolerated before the
  /// anomaly score alone forces a snap-back.
  std::uint64_t anomaly_threshold = 1;
};

/// Why a SamplingTransition telemetry event fired (its a2 argument).
enum class SamplingTrigger : std::uint8_t {
  Pressure = 0,  // escalation: queue pressure crossed the budget
  Calm,          // de-escalation: a calm period elapsed
  Violation,     // snap-back: a shard reported a violation
  Health,        // snap-back: monitor health transitioned upward
  Anomaly,       // snap-back: anomaly score crossed the threshold
};

const char* to_string(SamplingTrigger trigger);

struct SamplingStats {
  std::uint64_t sampled_out = 0;  // instances deterministically skipped
  std::uint64_t degrades = 0;     // upward rate transitions
  std::uint64_t step_downs = 0;   // calm-period downward transitions
  std::uint64_t snap_backs = 0;   // forced returns to rate 1
  std::uint32_t final_rate = 1;   // rate at scrape time
  std::uint32_t peak_rate = 1;    // highest rate ever reached
};

/// Shared by every producer and consumer thread of one monitor. All state
/// is relaxed atomics: the rate is a hint that may be read one transition
/// stale, which only shifts WHICH instances are sampled, never breaks the
/// all-threads-agree property (each decision hashes the rate it loaded,
/// and a torn instance degrades to a sound subset check).
class SamplingController {
 public:
  explicit SamplingController(const SamplingOptions& options);

  /// True when the monitor should consult should_check() at all. False
  /// (disabled) keeps the hot path a single branch on a plain bool.
  bool active() const { return active_; }

  /// The deterministic per-instance decision. Called by producers on
  /// every report; all threads of one instance agree by construction.
  bool should_check(std::uint64_t ctx_hash, std::uint32_t static_id,
                    std::uint64_t iter_hash);

  /// Overhead-budget signal: a producer found its ring full (the leading
  /// indicator of a falling-behind monitor). Enough of these escalate
  /// the rate one rung.
  void note_pressure();

  /// Snap-back triggers (idempotent at rate 1).
  void note_violation() { snap_back(SamplingTrigger::Violation); }
  void note_health_transition() { snap_back(SamplingTrigger::Health); }
  void note_anomaly();

  std::uint32_t current_rate() const {
    return rate_.load(std::memory_order_relaxed);
  }

  SamplingStats stats() const;

 private:
  void escalate();
  void step_down();
  void snap_back(SamplingTrigger trigger);
  void publish_transition(std::uint32_t from, std::uint32_t to,
                          SamplingTrigger trigger);

  SamplingOptions options_;
  bool active_ = false;    // enabled || forced_rate > 0
  bool adaptive_ = false;  // enabled && forced_rate == 0
  std::atomic<std::uint32_t> rate_{1};
  std::atomic<std::uint32_t> peak_rate_{1};
  std::atomic<std::uint64_t> decisions_{0};
  std::atomic<std::uint64_t> calm_{0};
  std::atomic<std::uint64_t> pressure_{0};
  std::atomic<std::uint64_t> anomalies_{0};
  std::atomic<std::uint64_t> hold_until_{0};
  std::atomic<std::uint64_t> sampled_out_{0};
  std::atomic<std::uint64_t> degrades_{0};
  std::atomic<std::uint64_t> step_downs_{0};
  std::atomic<std::uint64_t> snap_backs_{0};
};

}  // namespace bw::runtime
