#include "runtime/sampling.h"

#include <algorithm>

#include "support/prng.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

/// Seed of the per-instance decision hash, fixed so sampled runs replay.
constexpr std::uint64_t kDecisionSeed = 0x5eedb10cULL;

const char* to_string(SamplingTrigger trigger) {
  switch (trigger) {
    case SamplingTrigger::Pressure: return "pressure";
    case SamplingTrigger::Calm: return "calm";
    case SamplingTrigger::Violation: return "violation";
    case SamplingTrigger::Health: return "health";
    case SamplingTrigger::Anomaly: return "anomaly";
  }
  return "<bad-trigger>";
}

SamplingController::SamplingController(const SamplingOptions& options)
    : options_(options) {
  options_.max_rate = std::max<std::uint32_t>(options_.max_rate, 1);
  options_.escalation_factor =
      std::max<std::uint32_t>(options_.escalation_factor, 2);
  active_ = options_.enabled || options_.forced_rate > 0;
  adaptive_ = options_.enabled && options_.forced_rate == 0;
  std::uint32_t start = 1;
  if (options_.forced_rate > 0) {
    start = options_.forced_rate;
  } else if (active_) {
    start = std::clamp<std::uint32_t>(options_.initial_rate, 1,
                                      options_.max_rate);
  }
  rate_.store(start, std::memory_order_relaxed);
  peak_rate_.store(start, std::memory_order_relaxed);
}

bool SamplingController::should_check(std::uint64_t ctx_hash,
                                      std::uint32_t static_id,
                                      std::uint64_t iter_hash) {
  const std::uint32_t rate = rate_.load(std::memory_order_relaxed);
  if (adaptive_) {
    // Counter-based clock: every decision ticks it, including at rate 1,
    // so calm periods and snap-back holds expire deterministically.
    decisions_.fetch_add(1, std::memory_order_relaxed);
    if (rate > 1 &&
        calm_.fetch_add(1, std::memory_order_relaxed) + 1 >=
            options_.calm_period) {
      step_down();
    }
  }
  if (rate <= 1) return true;
  // Pure function of (seed, instance identity, rate): every program thread
  // reporting the same instance computes the same verdict, so a sampled-out
  // instance is invisible to the monitor rather than partially visible.
  const std::uint64_t key = support::hash_combine(
      support::hash_combine(kDecisionSeed, support::hash_combine(
                                               ctx_hash, static_id)),
      iter_hash);
  if (key % rate == 0) return true;
  sampled_out_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter_add(telemetry::Counter::ReportsSampledOut);
  return false;
}

void SamplingController::note_pressure() {
  if (!adaptive_) return;
  // Escalation is suppressed during a snap-back hold so one burst of
  // pressure cannot instantly re-degrade a monitor that just saw trouble.
  if (decisions_.load(std::memory_order_relaxed) <
      hold_until_.load(std::memory_order_relaxed)) {
    return;
  }
  if (pressure_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      options_.degrade_threshold) {
    pressure_.store(0, std::memory_order_relaxed);
    escalate();
  }
}

void SamplingController::note_anomaly() {
  if (!adaptive_) return;
  if (anomalies_.fetch_add(1, std::memory_order_relaxed) + 1 >=
      options_.anomaly_threshold) {
    anomalies_.store(0, std::memory_order_relaxed);
    snap_back(SamplingTrigger::Anomaly);
  }
}

void SamplingController::escalate() {
  std::uint32_t from = rate_.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t to = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(std::max<std::uint32_t>(from, 1)) *
            options_.escalation_factor,
        options_.max_rate);
    if (to <= from) return;  // already at the ladder ceiling
    if (rate_.compare_exchange_weak(from, to, std::memory_order_relaxed)) {
      calm_.store(0, std::memory_order_relaxed);
      degrades_.fetch_add(1, std::memory_order_relaxed);
      std::uint32_t peak = peak_rate_.load(std::memory_order_relaxed);
      while (peak < to && !peak_rate_.compare_exchange_weak(
                              peak, to, std::memory_order_relaxed)) {
      }
      telemetry::counter_add(telemetry::Counter::SamplingDegrades);
      publish_transition(from, to, SamplingTrigger::Pressure);
      return;
    }
  }
}

void SamplingController::step_down() {
  std::uint32_t from = rate_.load(std::memory_order_relaxed);
  for (;;) {
    if (from <= 1) return;
    const std::uint32_t to =
        std::max<std::uint32_t>(from / options_.escalation_factor, 1);
    if (rate_.compare_exchange_weak(from, to, std::memory_order_relaxed)) {
      calm_.store(0, std::memory_order_relaxed);
      step_downs_.fetch_add(1, std::memory_order_relaxed);
      publish_transition(from, to, SamplingTrigger::Calm);
      return;
    }
  }
}

void SamplingController::snap_back(SamplingTrigger trigger) {
  if (!adaptive_) return;
  const std::uint32_t from = rate_.exchange(1, std::memory_order_relaxed);
  hold_until_.store(
      decisions_.load(std::memory_order_relaxed) + options_.snapback_hold,
      std::memory_order_relaxed);
  pressure_.store(0, std::memory_order_relaxed);
  calm_.store(0, std::memory_order_relaxed);
  if (from <= 1) return;  // already at full checking: idempotent
  snap_backs_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter_add(telemetry::Counter::SamplingSnapBacks);
  publish_transition(from, 1, trigger);
}

void SamplingController::publish_transition(std::uint32_t from,
                                            std::uint32_t to,
                                            SamplingTrigger trigger) {
  telemetry::gauge_set(telemetry::Gauge::SamplingRate, to);
  telemetry::record_event(telemetry::EventKind::SamplingTransition,
                          telemetry::Phase::MonitorCheck, from, to,
                          static_cast<std::uint64_t>(trigger));
}

SamplingStats SamplingController::stats() const {
  SamplingStats s;
  s.sampled_out = sampled_out_.load(std::memory_order_relaxed);
  s.degrades = degrades_.load(std::memory_order_relaxed);
  s.step_downs = step_downs_.load(std::memory_order_relaxed);
  s.snap_backs = snap_backs_.load(std::memory_order_relaxed);
  s.final_rate = rate_.load(std::memory_order_relaxed);
  s.peak_rate = peak_rate_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bw::runtime
