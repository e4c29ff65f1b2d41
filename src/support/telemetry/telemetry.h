// Low-overhead observability for the whole BLOCKWATCH stack: a lock-free
// counter/gauge/histogram registry, phase-scoped spans, and a structured
// event log, threaded through every layer (frontend -> analysis ->
// instrumentation -> VM execution -> monitor check -> recovery).
//
// Design constraints, in order:
//   1. Disabled must be near-free. Telemetry ships compiled in but OFF;
//      every hot-path entry point is a relaxed atomic-bool load and a
//      predictable branch. bw_fig6_overhead guards this (within 1% of the
//      pre-telemetry baseline; see EXPERIMENTS.md "Telemetry overhead").
//      Building with -DBW_TELEMETRY=OFF additionally compiles every call
//      to a literal no-op for paranoid deployments.
//   2. Enabled must never serialize program threads against each other.
//      Counters and histograms live in per-thread cacheline-aligned slots
//      (relaxed atomic adds, owner-written) and are summed only at scrape
//      time. Spans and events append to bounded per-slot rings; once a
//      ring is full new records are counted as dropped, never blocked on.
//   3. No allocation on the hot path. Slots are allocated once on a
//      thread's first telemetry touch; span/event records are fixed-size
//      PODs with interned (static string) names.
//
// Typical use (see docs/observability.md for the full reference):
//
//   telemetry::set_enabled(true);
//   { telemetry::SpanScope span(telemetry::Phase::Frontend, "compile");
//     ... }
//   telemetry::counter_add(telemetry::Counter::ReportsSent);
//   telemetry::Snapshot snap = telemetry::scrape();
//   telemetry::write_file("trace.json", telemetry::to_chrome_trace(snap));
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace bw::telemetry {

// ---------------------------------------------------------------------------
// Metric identifiers. Fixed enums (not string registration) keep the hot
// path a plain array index and make the disabled path trivially dead.
// ---------------------------------------------------------------------------

enum class Counter : std::uint16_t {
  // Monitor wire (producer side).
  ReportsSent = 0,     // BranchSink::send admissions (counted at entry)
  ReportsDropped,      // producer give-ups (backoff exhausted / Failed)
  QueueFullEvents,     // first-try push failures (ring momentarily full)
  ReportsMuted,        // sends skipped: the site's check cannot fire at
                       // the run's thread count (runtime::min_reporters)
  // Monitor verdicts (consumer side, folded in from MonitorStats).
  ReportsProcessed,
  InstancesChecked,
  InstancesSkipped,
  Violations,
  HealthTransitions,
  // Recovery.
  CheckpointsCommitted,
  CheckpointsDiscarded,
  Rollbacks,
  RollbacksToSectionStart,
  // Pipeline.
  RunsExecuted,
  BranchesAnalyzed,
  // Fault campaign (per-injection outcome tallies).
  FaultInjected,
  FaultActivated,
  FaultBenign,
  FaultDetected,
  FaultRecovered,
  FaultCrashed,
  FaultHung,
  FaultSdc,
  FaultFalseAlarm,
  // Adaptive sampled monitoring (SamplingController).
  ReportsSampledOut,  // instances deterministically skipped by sampling
  SamplingDegrades,   // upward rate transitions (escalation ladder)
  SamplingSnapBacks,  // forced returns to full checking
  // Execution-tier decode cache (vm/dispatch.cpp).
  DecodeCacheHits,
  DecodeCacheMisses,
  // Monitor buffer cache (runtime/block_cache.h): ring slots and table
  // slabs served warm from an earlier run, or fresh from the allocator.
  BlockCacheHits,
  BlockCacheMisses,
  // Monitor service (runtime/monitor_service.h).
  SessionsAdmitted,
  SessionsRejected,   // admission refused: busy / stopped / bad config
  SessionsEvicted,    // sessions torn down (drained and detached)
  ReportsThrottled,   // reports dropped because a session was over quota
  TenantThrottleEvents,  // distinct over-quota episodes (edge-counted)
  // Compositional campaign engine (fault/compositional.h).
  CampaignPhaseCacheHits,  // injections served from the phase-outcome cache
  kCount,
};

enum class Gauge : std::uint16_t {
  // Last-analyzed program's Table V classification (similarity_report and
  // bw_table5_categories both read these, so they cannot drift apart).
  AnalysisBranchesTotal = 0,
  AnalysisBranchesShared,
  AnalysisBranchesThreadId,
  AnalysisBranchesPartial,
  AnalysisBranchesNone,
  AnalysisFixpointIterations,
  // Last execution's runtime shape.
  MonitorShards,
  MonitorHealth,  // 0 healthy / 1 degraded / 2 failed
  NumThreads,
  // Last fault campaign's worker pool.
  CampaignWorkers,
  CampaignWorkerUtilPct,  // 100 * sum(worker busy ns) / (workers * wall)
  // Last execution's sampling state (1 = full checking).
  SamplingRate,
  // Last execution's dispatcher (vm::ExecTier numeric value; resolved,
  // never Auto).
  ExecTier,
  kCount,
};

enum class Histogram : std::uint16_t {
  CheckpointNs = 0,  // per-checkpoint commit latency
  RestoreNs,         // per-rollback restore latency
  kCount,
};

/// The six pipeline phases a span or event belongs to, plus Other for
/// harness-side work. Chrome-trace categories map 1:1 onto these.
enum class Phase : std::uint8_t {
  Frontend = 0,
  Analysis,
  Instrumentation,
  Execution,
  MonitorCheck,
  Recovery,
  Other,
  kCount,
};

enum class EventKind : std::uint8_t {
  Violation = 0,     // a0=static_id  a1=ctx_hash    a2=iter_hash
  HealthTransition,  // a0=from       a1=to          a2=0
  Rollback,          // a0=generation a1=retries     a2=to_section_start
  Checkpoint,        // a0=generation a1=heap_words  a2=0
  QueueHighWater,    // a0=thread     a1=shard       a2=0
  FaultOutcome,      // a0=outcome(FaultOutcomeCode) a1=thread a2=target
  CampaignInjection,  // a0=plan index a1=verdict     a2=worker id
  SamplingTransition,  // a0=from_rate a1=to_rate a2=reason(SamplingTrigger)
  SessionAdmitted,   // a0=session    a1=threads     a2=quota
  SessionEvicted,    // a0=session    a1=violations  a2=dropped
  TenantThrottled,   // a0=session    a1=thread      a2=reports lost
  PhaseOutcome,      // a0=phase      a1=injections  a2=sdc count
  kCount,
};

/// a0 of an EventKind::FaultOutcome event.
enum class FaultOutcomeCode : std::uint8_t {
  NotActivated = 0,
  Benign,
  Detected,
  Recovered,
  Crashed,
  Hung,
  Sdc,
  FalseAlarm,
};

const char* to_string(Counter counter);
const char* to_string(Gauge gauge);
const char* to_string(Histogram histogram);
const char* to_string(Phase phase);
const char* to_string(EventKind kind);
const char* to_string(FaultOutcomeCode code);

// ---------------------------------------------------------------------------
// Scraped records.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";  // interned: callers pass string literals
  Phase phase = Phase::Other;
  std::uint32_t tid = 0;    // telemetry slot id (stable per thread)
  std::uint32_t depth = 0;  // nesting depth within this thread
  std::uint64_t start_ns = 0;  // relative to the trace epoch
  std::uint64_t end_ns = 0;
};

struct EventRecord {
  EventKind kind = EventKind::Violation;
  Phase phase = Phase::Other;
  std::uint32_t tid = 0;
  std::uint64_t ts_ns = 0;  // relative to the trace epoch
  std::uint64_t a0 = 0, a1 = 0, a2 = 0;
};

constexpr std::size_t kHistogramBuckets = 64;  // bucket b: [2^(b-1), 2^b)

struct Snapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counters{};
  std::array<std::uint64_t, static_cast<std::size_t>(Gauge::kCount)> gauges{};
  std::array<std::array<std::uint64_t, kHistogramBuckets>,
             static_cast<std::size_t>(Histogram::kCount)>
      histograms{};
  std::vector<SpanRecord> spans;    // sorted by (start_ns, end_ns desc)
  std::vector<EventRecord> events;  // sorted by ts_ns
  std::uint64_t spans_dropped = 0;   // ring overflow (bounded buffers)
  std::uint64_t events_dropped = 0;

  std::uint64_t counter(Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  std::uint64_t gauge(Gauge g) const {
    return gauges[static_cast<std::size_t>(g)];
  }
  /// Total samples recorded into a histogram (sum over buckets).
  std::uint64_t histogram_count(Histogram h) const;
};

// ---------------------------------------------------------------------------
// Recording API. Everything below is safe to call from any thread at any
// time; when telemetry is disabled each call is one relaxed load + branch
// (or a literal no-op under -DBW_TELEMETRY=OFF).
// ---------------------------------------------------------------------------

#if !defined(BW_TELEMETRY_DISABLED)

namespace detail {
extern std::atomic<bool> g_enabled;
void counter_add_slow(Counter counter, std::uint64_t delta);
void gauge_set_slow(Gauge gauge, std::uint64_t value);
void histogram_record_slow(Histogram histogram, std::uint64_t value);
void record_event_slow(EventKind kind, Phase phase, std::uint64_t a0,
                       std::uint64_t a1, std::uint64_t a2);
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Master switch. Enabling (re)opens the current trace epoch lazily; the
/// first record after enable establishes slot state. Disabling stops
/// recording but keeps accumulated data scrapeable.
void set_enabled(bool on);

/// Drop every counter, gauge, histogram, span and event and restart the
/// trace epoch at "now". Callers must ensure no concurrent recorder is
/// mid-flight (tests and CLI call it between runs, never during one).
void reset();

inline void counter_add(Counter counter, std::uint64_t delta = 1) {
  if (!enabled()) return;
  detail::counter_add_slow(counter, delta);
}

inline void gauge_set(Gauge gauge, std::uint64_t value) {
  if (!enabled()) return;
  detail::gauge_set_slow(gauge, value);
}

inline void histogram_record(Histogram histogram, std::uint64_t value) {
  if (!enabled()) return;
  detail::histogram_record_slow(histogram, value);
}

inline void record_event(EventKind kind, Phase phase, std::uint64_t a0 = 0,
                         std::uint64_t a1 = 0, std::uint64_t a2 = 0) {
  if (!enabled()) return;
  detail::record_event_slow(kind, phase, a0, a1, a2);
}

/// RAII phase span. The record is written at destruction (Chrome "complete"
/// event); nesting is tracked per thread. `name` must be a string literal
/// or otherwise outlive the registry (it is stored by pointer).
class SpanScope {
 public:
  SpanScope(Phase phase, const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::uint64_t start_ns_ = 0;
  Phase phase_;
  bool active_ = false;
};

/// Aggregate every slot into one consistent-enough view (counters are
/// relaxed sums; spans/events are merged and time-sorted). Cheap relative
/// to any run; intended for end-of-run export, not per-report use.
Snapshot scrape();

#else  // BW_TELEMETRY_DISABLED: every call is a literal no-op.

inline bool enabled() { return false; }
inline void set_enabled(bool) {}
inline void reset() {}
inline void counter_add(Counter, std::uint64_t = 1) {}
inline void gauge_set(Gauge, std::uint64_t) {}
inline void histogram_record(Histogram, std::uint64_t) {}
inline void record_event(EventKind, Phase, std::uint64_t = 0,
                         std::uint64_t = 0, std::uint64_t = 0) {}

class SpanScope {
 public:
  SpanScope(Phase, const char*) {}
};

inline Snapshot scrape() { return Snapshot{}; }

#endif  // BW_TELEMETRY_DISABLED

// ---------------------------------------------------------------------------
// Exporters (pure functions of a Snapshot; always compiled in).
// ---------------------------------------------------------------------------

/// Chrome trace_event JSON (the object form: {"traceEvents": [...]}).
/// Loads in about://tracing and https://ui.perfetto.dev: spans become "X"
/// (complete) events with phase categories, events become "i" (instant)
/// events with kind-specific args. All timestamps are microseconds from
/// the trace epoch.
std::string to_chrome_trace(const Snapshot& snapshot);

/// Plain-text metrics dump: one "name value" line per counter/gauge, plus
/// histogram count/p50/p99 summaries. Stable ordering (enum order).
std::string to_text(const Snapshot& snapshot);

/// Metrics as a JSON object (bench ingestion): {"counters": {...},
/// "gauges": {...}, "histograms": {...}, "spans": N, "events": N}.
std::string to_json(const Snapshot& snapshot);

/// Overwrite `path` with `contents`. Returns false on any I/O error.
bool write_file(const std::string& path, const std::string& contents);

}  // namespace bw::telemetry
