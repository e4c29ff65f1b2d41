#include "support/telemetry/telemetry.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace bw::telemetry {

const char* to_string(Counter counter) {
  switch (counter) {
    case Counter::ReportsSent: return "monitor.reports_sent";
    case Counter::ReportsDropped: return "monitor.reports_dropped";
    case Counter::QueueFullEvents: return "monitor.queue_full_events";
    case Counter::ReportsMuted: return "monitor.reports_muted";
    case Counter::ReportsProcessed: return "monitor.reports_processed";
    case Counter::InstancesChecked: return "monitor.instances_checked";
    case Counter::InstancesSkipped: return "monitor.instances_skipped";
    case Counter::Violations: return "monitor.violations";
    case Counter::HealthTransitions: return "monitor.health_transitions";
    case Counter::CheckpointsCommitted: return "recovery.checkpoints_committed";
    case Counter::CheckpointsDiscarded: return "recovery.checkpoints_discarded";
    case Counter::Rollbacks: return "recovery.rollbacks";
    case Counter::RollbacksToSectionStart:
      return "recovery.rollbacks_to_section_start";
    case Counter::RunsExecuted: return "pipeline.runs_executed";
    case Counter::BranchesAnalyzed: return "analysis.branches_analyzed";
    case Counter::FaultInjected: return "fault.injected";
    case Counter::FaultActivated: return "fault.activated";
    case Counter::FaultBenign: return "fault.benign";
    case Counter::FaultDetected: return "fault.detected";
    case Counter::FaultRecovered: return "fault.recovered";
    case Counter::FaultCrashed: return "fault.crashed";
    case Counter::FaultHung: return "fault.hung";
    case Counter::FaultSdc: return "fault.sdc";
    case Counter::FaultFalseAlarm: return "fault.false_alarms";
    case Counter::ReportsSampledOut: return "monitor.reports_sampled_out";
    case Counter::SamplingDegrades: return "monitor.sampling_degrades";
    case Counter::SamplingSnapBacks: return "monitor.sampling_snap_backs";
    case Counter::DecodeCacheHits: return "vm.decode_cache_hits";
    case Counter::DecodeCacheMisses: return "vm.decode_cache_misses";
    case Counter::BlockCacheHits: return "runtime.block_cache_hits";
    case Counter::BlockCacheMisses: return "runtime.block_cache_misses";
    case Counter::SessionsAdmitted: return "service.sessions_admitted";
    case Counter::SessionsRejected: return "service.sessions_rejected";
    case Counter::SessionsEvicted: return "service.sessions_evicted";
    case Counter::ReportsThrottled: return "service.reports_throttled";
    case Counter::TenantThrottleEvents:
      return "service.tenant_throttle_events";
    case Counter::CampaignPhaseCacheHits:
      return "campaign.phase_cache_hits";
    case Counter::kCount: break;
  }
  return "<bad-counter>";
}

const char* to_string(Gauge gauge) {
  switch (gauge) {
    case Gauge::AnalysisBranchesTotal: return "analysis.parallel_branches";
    case Gauge::AnalysisBranchesShared: return "analysis.branches_shared";
    case Gauge::AnalysisBranchesThreadId: return "analysis.branches_threadid";
    case Gauge::AnalysisBranchesPartial: return "analysis.branches_partial";
    case Gauge::AnalysisBranchesNone: return "analysis.branches_none";
    case Gauge::AnalysisFixpointIterations:
      return "analysis.fixpoint_iterations";
    case Gauge::MonitorShards: return "monitor.shards";
    case Gauge::MonitorHealth: return "monitor.health";
    case Gauge::NumThreads: return "vm.num_threads";
    case Gauge::CampaignWorkers: return "fault.campaign_workers";
    case Gauge::CampaignWorkerUtilPct:
      return "fault.campaign_worker_util_pct";
    case Gauge::SamplingRate: return "monitor.sampling_rate";
    case Gauge::ExecTier: return "vm.exec_tier";
    case Gauge::kCount: break;
  }
  return "<bad-gauge>";
}

const char* to_string(Histogram histogram) {
  switch (histogram) {
    case Histogram::CheckpointNs: return "recovery.checkpoint_ns";
    case Histogram::RestoreNs: return "recovery.restore_ns";
    case Histogram::kCount: break;
  }
  return "<bad-histogram>";
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::Frontend: return "frontend";
    case Phase::Analysis: return "analysis";
    case Phase::Instrumentation: return "instrumentation";
    case Phase::Execution: return "execution";
    case Phase::MonitorCheck: return "monitor_check";
    case Phase::Recovery: return "recovery";
    case Phase::Other: return "other";
    case Phase::kCount: break;
  }
  return "<bad-phase>";
}

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::Violation: return "violation";
    case EventKind::HealthTransition: return "health_transition";
    case EventKind::Rollback: return "rollback";
    case EventKind::Checkpoint: return "checkpoint";
    case EventKind::QueueHighWater: return "queue_high_water";
    case EventKind::FaultOutcome: return "fault_outcome";
    case EventKind::CampaignInjection: return "campaign_injection";
    case EventKind::SamplingTransition: return "sampling_transition";
    case EventKind::SessionAdmitted: return "session_admitted";
    case EventKind::SessionEvicted: return "session_evicted";
    case EventKind::TenantThrottled: return "tenant_throttled";
    case EventKind::PhaseOutcome: return "phase_outcome";
    case EventKind::kCount: break;
  }
  return "<bad-event-kind>";
}

const char* to_string(FaultOutcomeCode code) {
  switch (code) {
    case FaultOutcomeCode::NotActivated: return "not-activated";
    case FaultOutcomeCode::Benign: return "benign";
    case FaultOutcomeCode::Detected: return "detected";
    case FaultOutcomeCode::Recovered: return "recovered";
    case FaultOutcomeCode::Crashed: return "crashed";
    case FaultOutcomeCode::Hung: return "hung";
    case FaultOutcomeCode::Sdc: return "sdc";
    case FaultOutcomeCode::FalseAlarm: return "false-alarm";
  }
  return "<bad-outcome>";
}

std::uint64_t Snapshot::histogram_count(Histogram h) const {
  std::uint64_t total = 0;
  for (std::uint64_t bucket : histograms[static_cast<std::size_t>(h)]) {
    total += bucket;
  }
  return total;
}

#if !defined(BW_TELEMETRY_DISABLED)

namespace detail {

std::atomic<bool> g_enabled{false};

namespace {

constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);
constexpr std::size_t kNumGauges = static_cast<std::size_t>(Gauge::kCount);
constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::kCount);
constexpr std::size_t kMaxSlots = 64;
constexpr std::size_t kSpanRingCapacity = 4096;
constexpr std::size_t kEventRingCapacity = 4096;

/// Tiny test-and-test-and-set spinlock guarding one slot's span/event
/// rings. Two threads share a slot only past kMaxSlots concurrent threads
/// (slot ids wrap), so contention is effectively zero; a real mutex would
/// cost more in the common uncontended case.
class SpinLock {
 public:
  void lock() {
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) {
      }
    }
  }
  void unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

/// Per-thread metric storage. Counters/histograms are written with relaxed
/// atomics by the owning thread (and any slot-sharing overflow threads)
/// and summed at scrape; the span/event rings keep the first N records and
/// count the overflow, so a pathological event storm degrades to counters
/// instead of unbounded memory.
struct alignas(64) Slot {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
             kNumHistograms>
      histograms{};
  SpinLock ring_lock;
  std::vector<SpanRecord> spans;    // capped at kSpanRingCapacity
  std::vector<EventRecord> events;  // capped at kEventRingCapacity
  std::atomic<std::uint64_t> spans_dropped{0};
  std::atomic<std::uint64_t> events_dropped{0};
};

struct Registry {
  std::array<std::atomic<Slot*>, kMaxSlots> slots{};
  std::array<std::atomic<std::uint64_t>, kNumGauges> gauges{};
  std::atomic<std::uint32_t> next_slot{0};
  std::atomic<std::int64_t> epoch_ns{0};  // steady_clock epoch of t=0
  std::mutex alloc_mu;
};

Registry& registry() {
  // Leaked on purpose: monitor/VM threads may record up to their join,
  // which can race static destruction in exotic exit paths.
  static Registry* r = new Registry();
  return *r;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds since the trace epoch (established at first enable/reset).
std::uint64_t now_ns() {
  const std::int64_t delta =
      steady_now_ns() - registry().epoch_ns.load(std::memory_order_relaxed);
  return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
}

Slot& slot_for_index(std::uint32_t index) {
  Registry& reg = registry();
  std::atomic<Slot*>& cell = reg.slots[index];
  Slot* slot = cell.load(std::memory_order_acquire);
  if (slot != nullptr) return *slot;
  std::lock_guard<std::mutex> lock(reg.alloc_mu);
  slot = cell.load(std::memory_order_acquire);
  if (slot == nullptr) {
    slot = new Slot();
    slot->spans.reserve(kSpanRingCapacity);
    slot->events.reserve(kEventRingCapacity);
    cell.store(slot, std::memory_order_release);
  }
  return *slot;
}

struct ThreadState {
  std::uint32_t slot = 0;
  std::uint32_t span_depth = 0;
  bool assigned = false;
};

thread_local ThreadState t_state;

std::uint32_t current_slot_index() {
  if (!t_state.assigned) {
    t_state.slot = registry().next_slot.fetch_add(
                       1, std::memory_order_relaxed) %
                   kMaxSlots;
    t_state.assigned = true;
  }
  return t_state.slot;
}

Slot& current_slot() { return slot_for_index(current_slot_index()); }

std::size_t bucket_of(std::uint64_t value) {
  // Bucket 0 holds value 0; bucket b (1..63) holds [2^(b-1), 2^b).
  return value == 0 ? 0 : static_cast<std::size_t>(std::bit_width(value));
}

}  // namespace

void counter_add_slow(Counter counter, std::uint64_t delta) {
  current_slot().counters[static_cast<std::size_t>(counter)].fetch_add(
      delta, std::memory_order_relaxed);
}

void gauge_set_slow(Gauge gauge, std::uint64_t value) {
  registry().gauges[static_cast<std::size_t>(gauge)].store(
      value, std::memory_order_relaxed);
}

void histogram_record_slow(Histogram histogram, std::uint64_t value) {
  current_slot()
      .histograms[static_cast<std::size_t>(histogram)][bucket_of(value)]
      .fetch_add(1, std::memory_order_relaxed);
}

void record_event_slow(EventKind kind, Phase phase, std::uint64_t a0,
                       std::uint64_t a1, std::uint64_t a2) {
  Slot& slot = current_slot();
  EventRecord record;
  record.kind = kind;
  record.phase = phase;
  record.tid = current_slot_index();
  record.ts_ns = now_ns();
  record.a0 = a0;
  record.a1 = a1;
  record.a2 = a2;
  slot.ring_lock.lock();
  if (slot.events.size() < kEventRingCapacity) {
    slot.events.push_back(record);
    slot.ring_lock.unlock();
  } else {
    slot.ring_lock.unlock();
    slot.events_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace detail

void set_enabled(bool on) {
  using detail::registry;
  if (on && registry().epoch_ns.load(std::memory_order_relaxed) == 0) {
    registry().epoch_ns.store(detail::steady_now_ns(),
                              std::memory_order_relaxed);
  }
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  using namespace detail;
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.alloc_mu);
  for (auto& cell : reg.slots) {
    Slot* slot = cell.load(std::memory_order_acquire);
    if (slot == nullptr) continue;
    for (auto& c : slot->counters) c.store(0, std::memory_order_relaxed);
    for (auto& hist : slot->histograms) {
      for (auto& bucket : hist) bucket.store(0, std::memory_order_relaxed);
    }
    slot->ring_lock.lock();
    slot->spans.clear();
    slot->events.clear();
    slot->ring_lock.unlock();
    slot->spans_dropped.store(0, std::memory_order_relaxed);
    slot->events_dropped.store(0, std::memory_order_relaxed);
  }
  for (auto& gauge : reg.gauges) gauge.store(0, std::memory_order_relaxed);
  reg.epoch_ns.store(steady_now_ns(), std::memory_order_relaxed);
}

SpanScope::SpanScope(Phase phase, const char* name)
    : name_(name), phase_(phase) {
  if (!enabled()) return;
  active_ = true;
  start_ns_ = detail::now_ns();
  ++detail::t_state.span_depth;
}

SpanScope::~SpanScope() {
  if (!active_) return;
  using namespace detail;
  --t_state.span_depth;
  SpanRecord record;
  record.name = name_;
  record.phase = phase_;
  record.tid = current_slot_index();
  record.depth = t_state.span_depth;
  record.start_ns = start_ns_;
  record.end_ns = now_ns();
  Slot& slot = current_slot();
  slot.ring_lock.lock();
  if (slot.spans.size() < kSpanRingCapacity) {
    slot.spans.push_back(record);
    slot.ring_lock.unlock();
  } else {
    slot.ring_lock.unlock();
    slot.spans_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

Snapshot scrape() {
  using namespace detail;
  Snapshot snap;
  Registry& reg = registry();
  for (std::size_t g = 0; g < kNumGauges; ++g) {
    snap.gauges[g] = reg.gauges[g].load(std::memory_order_relaxed);
  }
  for (auto& cell : reg.slots) {
    Slot* slot = cell.load(std::memory_order_acquire);
    if (slot == nullptr) continue;
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      snap.counters[c] +=
          slot->counters[c].load(std::memory_order_relaxed);
    }
    for (std::size_t h = 0; h < kNumHistograms; ++h) {
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        snap.histograms[h][b] +=
            slot->histograms[h][b].load(std::memory_order_relaxed);
      }
    }
    slot->ring_lock.lock();
    snap.spans.insert(snap.spans.end(), slot->spans.begin(),
                      slot->spans.end());
    snap.events.insert(snap.events.end(), slot->events.begin(),
                       slot->events.end());
    slot->ring_lock.unlock();
    snap.spans_dropped +=
        slot->spans_dropped.load(std::memory_order_relaxed);
    snap.events_dropped +=
        slot->events_dropped.load(std::memory_order_relaxed);
  }
  // Time order; ties broken so an enclosing span precedes its children
  // (longer spans first), which renders correctly in Perfetto.
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.end_ns > b.end_ns;
            });
  std::sort(snap.events.begin(), snap.events.end(),
            [](const EventRecord& a, const EventRecord& b) {
              return a.ts_ns < b.ts_ns;
            });
  return snap;
}

#endif  // !BW_TELEMETRY_DISABLED

}  // namespace bw::telemetry
