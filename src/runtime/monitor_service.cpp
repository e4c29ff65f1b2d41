#include "runtime/monitor_service.h"

#include <algorithm>

#include "runtime/consumer.h"
#include "runtime/spsc_queue.h"
#include "support/diagnostics.h"
#include "support/prng.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

const char* to_string(AdmitError error) {
  switch (error) {
    case AdmitError::None: return "none";
    case AdmitError::TableFull: return "table-full";
    case AdmitError::ServiceStopped: return "service-stopped";
    case AdmitError::BadConfig: return "bad-config";
  }
  return "<bad-admit-error>";
}

namespace detail {

enum SessionPhase { kActive = 0, kDraining = 1, kDetached = 2 };

/// Producer-thread-private state, one slot per program thread of the
/// session. Cacheline-aligned; only `dropped` and `in_flight` are read
/// by other threads.
struct alignas(64) ProducerSlot {
  std::atomic<std::uint64_t> dropped{0};
  /// Dekker-style teardown guard: a producer call increments (seq_cst)
  /// then checks the session phase; teardown latches the phase then
  /// waits for zero, so the staged runs are never mutated from two
  /// threads.
  std::atomic<std::uint32_t> in_flight{0};
  MonitorHealth last_health = MonitorHealth::Healthy;
  /// Edge-detector for throttle episodes (one event per entry into the
  /// over-quota regime, not per discarded run).
  bool throttling = false;
  /// Per-shard watchdog, run against this SESSION's beat on that shard (a
  /// frozen tenant fails only its own session). The quota gate reads it
  /// too.
  std::vector<StallClock> stall;
  /// The quota gate's give-up clock, run against released_reports.
  StallClock quota_stall;
};

/// Releases each burst's popped reports from the session's quota.
struct QuotaRelease {
  std::atomic<std::uint64_t>& queued;
  std::atomic<std::uint64_t>& released;
  void operator()(std::uint64_t count) const {
    queued.fetch_sub(count, std::memory_order_release);
    released.fetch_add(count, std::memory_order_relaxed);
  }
};

/// Everything a session owns. Shared (via shared_ptr) between the
/// session handle, the registry, and each shard's snapshot, so a
/// detaching session's state outlives its registry entry.
struct SessionState {
  SessionState(SessionId id_, const SessionOptions& opts,
               std::uint64_t quota_, unsigned num_shards_,
               std::size_t ring_capacity)
      : id(id_),
        options(opts),
        quota(quota_),
        publish_at(static_cast<std::size_t>(std::clamp<std::uint64_t>(
            quota_, 1, SpscQueue<BranchReport>::kStride))),
        producers(opts.num_threads),
        rings(opts.num_threads, num_shards_, ring_capacity),
        mailbox(num_shards_),
        sampler(opts.sampling) {
    for (ProducerSlot& slot : producers) slot.stall.resize(num_shards_);
    for (unsigned k = 0; k < num_shards_; ++k) {
      // Hook indices count this session's pops on one shard; a shard
      // outside shard_filter screens without them.
      shard_cores.push_back(std::make_unique<TenantCore>(
          cells(), opts.num_threads, opts,
          opts.fault_hooks.shard_filter == MonitorFaultHooks::kAllShards ||
              opts.fault_hooks.shard_filter == k));
      shard_tenants.push_back(std::make_unique<ShardTenant>(
          *shard_cores.back(), mailbox, k, rings,
          QuotaRelease{queued_reports, released_reports}));
    }
  }

  const SessionId id;
  const SessionOptions options;
  const std::uint64_t quota;
  /// A lane's staged run is published once it holds this many reports:
  /// a stride, or the whole quota when that is smaller, so that one run
  /// can always claim it.
  const std::size_t publish_at;

  std::vector<ProducerSlot> producers;
  /// One ring per (program thread, shard): rings.at(thread, shard). The
  /// reports its producer staged but has not published are the lane's
  /// run.
  RingMatrix<BranchReport> rings;
  /// Recovery and detach commands, and each shard's beat for this session
  /// (consumer.h).
  Mailbox mailbox;
  /// Each shard's consumer core for this session. A shard stops touching
  /// its core once it acks the detach, whose release-store orders its last
  /// writes before the teardown-side merge.
  std::vector<std::unique_ptr<TenantCore>> shard_cores;
  /// Each shard's visits to this session (consumer.h), made only by that
  /// shard's thread. Kept until the session state dies: a shard reads its
  /// tenant once more right after acking the detach.
  using ShardTenant = Tenant<QuotaRelease>;
  std::vector<std::unique_ptr<ShardTenant>> shard_tenants;

  /// Reports published but not yet filed, across all shards — the value
  /// the per-tenant quota gates on. Incremented by producers when a
  /// run claims quota, decremented by shards after each burst is filed.
  std::atomic<std::uint64_t> queued_reports{0};
  /// Reports the shards have taken off queued_reports, ever: the beat a
  /// producer waiting at the quota gate reads (monotone, unlike the
  /// quota itself, which other producers refill).
  std::atomic<std::uint64_t> released_reports{0};
  std::atomic<std::uint64_t> quota_peak{0};
  std::atomic<std::uint64_t> reports_throttled{0};
  std::atomic<std::uint64_t> throttle_events{0};

  HealthCell health;
  SamplingController sampler;
  std::atomic<std::uint64_t> violation_count{0};

  std::atomic<int> phase{kActive};

  // Final merged results; written by teardown before phase -> Detached.
  MonitorStats final_stats;
  std::vector<Violation> final_violations;

  SinkCells cells() { return {health, sampler, violation_count}; }
};

}  // namespace detail

namespace {

/// Retires a producer call. A slot's count has one writer, its program
/// thread, so the release is a plain store: no read-modify-write, which
/// would wait for the report just staged to leave the store buffer.
struct InFlightGuard {
  std::atomic<std::uint32_t>& count;
  ~InFlightGuard() {
    count.store(count.load(std::memory_order_relaxed) - 1,
                std::memory_order_release);
  }
};

/// Merge the shard cores that acked detach `seq`, producer counters,
/// throttle accounting and sampling stats into the session's final
/// MonitorStats, freeing each merged core. Runs on the teardown thread; a
/// shard that never acked the detach may still be filing and is skipped.
void merge_session_results(detail::SessionState& s, std::uint64_t seq) {
  MonitorStats m;
  s.final_violations.clear();
  for (unsigned k = 0; k < s.shard_cores.size(); ++k) {
    if (!s.mailbox.acked(k, seq)) continue;
    const TenantCore& core = *s.shard_cores[k];
    s.final_violations.insert(s.final_violations.end(),
                              core.table.violations().begin(),
                              core.table.violations().end());
    core.fold(m);
    s.shard_cores[k].reset();
  }
  m.violations = s.final_violations.size();
  m.reports_throttled = s.reports_throttled.load(std::memory_order_relaxed);
  m.throttle_events = s.throttle_events.load(std::memory_order_relaxed);
  m.quota_peak = s.quota_peak.load(std::memory_order_relaxed);
  fold_producer_stats(m, s.sampler, s.producers);
  s.final_stats = std::move(m);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shard side: one thread per shard, visiting every session in turn.
// ---------------------------------------------------------------------------

struct MonitorService::Shard {
  unsigned index = 0;
  std::thread worker;
  std::uint64_t snapshot_version = ~std::uint64_t{0};
  std::vector<std::shared_ptr<detail::SessionState>> snapshot;
};

void MonitorService::shard_run(Shard& shard) {
  telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                            "service.shard.drain");
  while (true) {
    if (registry_version_.load(std::memory_order_acquire) !=
        shard.snapshot_version) {
      std::lock_guard<std::mutex> lock(mutex_);
      shard.snapshot = sessions_;
      shard.snapshot_version =
          registry_version_.load(std::memory_order_relaxed);
    }
    bool popped = false;
    for (auto& sp : shard.snapshot) {
      detail::SessionState& s = *sp;
      // A session still tearing down is visited like any other, so the
      // residual runs close() publishes never wait on a ring nobody
      // drains; one whose detach this shard executed is never visited
      // again.
      if (s.mailbox.detached(shard.index)) continue;
      popped |= s.shard_tenants[shard.index]->visit();
    }
    if (!popped) {
      if (shards_exit_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
  }
}

// ---------------------------------------------------------------------------
// Producer side (runs on the session's program threads).
// ---------------------------------------------------------------------------

unsigned MonitorService::shard_of(const detail::SessionState& s,
                                  const BranchReport& report) const {
  // Keyed by (session, ctx, static_id): a branch of one session lives
  // wholly in one shard, and two sessions' identical branches may land
  // on different shards — irrelevant, since their tables are disjoint.
  return static_cast<unsigned>(
      support::hash_combine(
          support::hash_combine(report.ctx_hash, report.static_id), s.id) %
      num_shards_);
}

void MonitorService::session_send(detail::SessionState& s,
                                  const BranchReport& report) {
  BW_INTERNAL_CHECK(report.thread < s.options.num_threads,
                    "report from out-of-range thread");
  detail::ProducerSlot& slot = s.producers[report.thread];
  slot.in_flight.fetch_add(1, std::memory_order_seq_cst);
  InFlightGuard guard{slot.in_flight};
  if (s.phase.load(std::memory_order_seq_cst) != detail::kActive) {
    slot.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const MonitorHealth now_health = s.health.get();
  if (now_health == MonitorHealth::Failed) {
    slot.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (slot.last_health != now_health) {
    slot.last_health = now_health;
    publish_runs(s, report.thread);
  }
  if (s.sampler.active() &&
      !s.sampler.should_check(report.ctx_hash, report.static_id,
                              report.iter_hash)) {
    return;  // instance deterministically sampled out on every thread
  }
  telemetry::counter_add(telemetry::Counter::ReportsSent);
  const unsigned shard = shard_of(s, report);
  SpscQueue<BranchReport>& ring = s.rings.at(report.thread, shard);
  BranchReport sealed;
  const BranchReport* payload = &report;
  if (s.options.validate_reports) {
    sealed = report;
    seal_report(sealed);
    payload = &sealed;
  }
  auto try_stage = [&] { return ring.try_stage(*payload); };
  if (!try_stage()) {
    // The shard can only make room behind what it sees. A give-up asks
    // the watchdog about THIS session's beat on the refusing shard: one
    // wedged shard trips Failed exactly like the legacy single consumer,
    // and a tenant frozen by its own stall fault trips only its own
    // Failed.
    publish_run(s, report.thread, shard);
    if (!push_or_give_up(try_stage, s.cells(), options_.backoff,
                         options_.watchdog, report.thread, shard,
                         slot.dropped, slot.stall[shard],
                         s.mailbox.cells[shard].beat)) {
      return;
    }
  }
  if (ring.staged() >= s.publish_at) publish_run(s, report.thread, shard);
}

void MonitorService::session_flush(detail::SessionState& s,
                                   std::uint32_t thread) {
  BW_INTERNAL_CHECK(thread < s.options.num_threads,
                    "flush from out-of-range thread");
  detail::ProducerSlot& slot = s.producers[thread];
  slot.in_flight.fetch_add(1, std::memory_order_seq_cst);
  InFlightGuard guard{slot.in_flight};
  if (s.phase.load(std::memory_order_seq_cst) != detail::kActive) {
    return;  // teardown owns the staged runs from here on
  }
  publish_runs(s, thread);
}

void MonitorService::publish_runs(detail::SessionState& s,
                                  std::uint32_t thread) {
  for (unsigned k = 0; k < num_shards_; ++k) publish_run(s, thread, k);
}

/// The per-tenant quota gate for a run bound to `shard`: claim (CAS),
/// then the backoff ladder, which here also stops once the session leaves
/// kActive, repeated (as on a full ring) while the shards released reports
/// within the give-up grace. A gate already seen stuck — released_reports
/// frozen past the grace, and the shard's beat for this session standing
/// still as long — gives up at once instead of re-running a ladder that
/// cannot succeed, and a beat frozen for the watchdog deadline fails the
/// session as the ring path does. On failure the caller samples down and
/// drops. Only this session's producers ever wait here; the quota counter
/// is session-private.
bool MonitorService::acquire_quota(detail::SessionState& s,
                                   std::uint32_t thread, unsigned shard,
                                   std::uint32_t count) {
  auto try_claim = [&]() -> bool {
    std::uint64_t cur = s.queued_reports.load(std::memory_order_relaxed);
    while (cur + count <= s.quota) {
      if (s.queued_reports.compare_exchange_weak(cur, cur + count,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed)) {
        const std::uint64_t now_queued = cur + count;
        std::uint64_t peak = s.quota_peak.load(std::memory_order_relaxed);
        while (now_queued > peak &&
               !s.quota_peak.compare_exchange_weak(
                   peak, now_queued, std::memory_order_relaxed)) {
        }
        return true;
      }
    }
    return false;
  };
  if (try_claim()) return true;
  auto stop = [&] {
    return s.health.get() == MonitorHealth::Failed ||
           s.phase.load(std::memory_order_acquire) != detail::kActive;
  };
  const std::uint64_t grace = give_up_grace_ns(options_.watchdog);
  detail::ProducerSlot& slot = s.producers[thread];
  auto released = [&] {
    return s.released_reports.load(std::memory_order_relaxed);
  };
  auto beat = [&] {
    return s.mailbox.cells[shard].beat.load(std::memory_order_relaxed);
  };
  auto give_up = [&] {
    if (slot.stall[shard].expired(beat(), options_.watchdog)) {
      s.cells().raise(MonitorHealth::Failed);
    }
    return false;
  };
  // Both clocks are read on every refused claim, so they start together.
  const bool released_frozen = slot.quota_stall.frozen_for(released(), grace);
  const bool beat_frozen = slot.stall[shard].frozen_for(beat(), grace);
  if (released_frozen && beat_frozen) return give_up();
  while (!run_backoff(options_.backoff, try_claim, stop)) {
    if (stop() || slot.quota_stall.frozen_for(released(), grace)) {
      return give_up();
    }
  }
  return true;
}

void MonitorService::publish_run(detail::SessionState& s,
                                 std::uint32_t thread, unsigned shard) {
  SpscQueue<BranchReport>& ring = s.rings.at(thread, shard);
  const std::uint32_t count = static_cast<std::uint32_t>(ring.staged());
  if (count == 0) return;
  detail::ProducerSlot& slot = s.producers[thread];
  if (s.health.get() == MonitorHealth::Failed) {
    slot.dropped.fetch_add(count, std::memory_order_relaxed);
    ring.discard_staged();
    return;
  }
  if (!acquire_quota(s, thread, shard, count)) {
    // Over quota after the full ladder: the final rungs — sample down,
    // degrade, discard the run. All side effects are session-local; a
    // noisy tenant throttles itself while its neighbors keep full
    // checking.
    s.reports_throttled.fetch_add(count, std::memory_order_relaxed);
    if (!slot.throttling) {
      slot.throttling = true;
      s.throttle_events.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter_add(telemetry::Counter::TenantThrottleEvents);
    }
    telemetry::counter_add(telemetry::Counter::ReportsThrottled, count);
    telemetry::record_event(telemetry::EventKind::TenantThrottled,
                            telemetry::Phase::MonitorCheck, s.id, thread,
                            count);
    s.sampler.note_pressure();
    raise_health(s.health, s.sampler, MonitorHealth::Degraded);
    ring.discard_staged();
    return;
  }
  slot.throttling = false;
  ring.publish();
}

// ---------------------------------------------------------------------------
// Session lifecycle and recovery commands.
// ---------------------------------------------------------------------------

bool MonitorService::post_session_command(detail::SessionState& s,
                                          Command command) {
  if (!started_.load(std::memory_order_acquire)) return false;
  if (shards_exit_.load(std::memory_order_acquire)) return false;
  if (s.phase.load(std::memory_order_acquire) != detail::kActive) {
    return false;
  }
  return post_and_wait(s.mailbox, command, options_.watchdog, s.health);
}

bool MonitorService::session_quiesce(detail::SessionState& s) {
  if (!started_.load(std::memory_order_acquire)) return true;
  if (s.phase.load(std::memory_order_acquire) != detail::kActive) {
    return false;
  }
  return quiesce_sink(s.rings, s.mailbox, options_.watchdog, s.health);
}

bool MonitorService::session_reset_epoch(detail::SessionState& s) {
  if (!post_session_command(s, Command::Reset)) return false;
  // Shards discarded this session's published reports and tables; now
  // take back the runs its producers staged, counted as rolled back on
  // their shard, and the detection flag. Safe: this session's producers
  // are quiescent by the recovery contract (neighbor sessions keep
  // running; their state is disjoint), and every shard acked the reset,
  // so none writes its core's counters until the next command.
  for (unsigned t = 0; t < s.options.num_threads; ++t) {
    for (unsigned k = 0; k < num_shards_; ++k) {
      SpscQueue<BranchReport>& ring = s.rings.at(t, k);
      s.shard_cores[k]->reports_rolled_back += ring.staged();
      ring.discard_staged();
    }
  }
  s.violation_count.store(0, std::memory_order_release);
  return true;
}

void MonitorService::teardown(
    const std::shared_ptr<detail::SessionState>& state) {
  detail::SessionState& s = *state;
  int expected = detail::kActive;
  if (!s.phase.compare_exchange_strong(expected, detail::kDraining,
                                       std::memory_order_seq_cst)) {
    // A concurrent close()/stop() won the race; wait for it to finish so
    // stats()/violations() are valid on return.
    while (s.phase.load(std::memory_order_acquire) != detail::kDetached) {
      std::this_thread::yield();
    }
    return;
  }
  // Dekker wait, paired with the seq_cst in_flight bump in
  // session_send/session_flush: once this clears, no producer call will
  // touch the staged runs again.
  for (detail::ProducerSlot& slot : s.producers) {
    while (slot.in_flight.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
  for (unsigned t = 0; t < s.options.num_threads; ++t) publish_runs(s, t);
  // Broadcast the detach; every shard drains this session's rings (a
  // frozen tenant's as drops), finalizes its table and acks. The wait
  // ignores health: a Failed session still detaches.
  const std::uint64_t seq = s.mailbox.post(Command::Detach);
  if (!bounded_wait([&] { return s.mailbox.all_acked(seq); },
                    options_.watchdog, /*health=*/nullptr)) {
    // A shard thread is truly wedged (session stalls never wedge the
    // shard). Merge only the acked cores; the session is Failed.
    s.health.raise(MonitorHealth::Failed);
  }
  merge_session_results(s, seq);
  s.phase.store(detail::kDetached, std::memory_order_release);
  std::size_t active_now = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions_.erase(std::remove(sessions_.begin(), sessions_.end(), state),
                    sessions_.end());
    ++sessions_evicted_;
    registry_version_.fetch_add(1, std::memory_order_release);
    active_now = sessions_.size();
  }
  telemetry::gauge_set(telemetry::Gauge::ActiveSessions, active_now);
  telemetry::counter_add(telemetry::Counter::SessionsEvicted);
  telemetry::record_event(telemetry::EventKind::SessionEvicted,
                          telemetry::Phase::MonitorCheck, s.id,
                          s.final_stats.violations,
                          s.final_stats.dropped_reports);
}

// ---------------------------------------------------------------------------
// Service lifecycle.
// ---------------------------------------------------------------------------

MonitorService::MonitorService(MonitorServiceOptions options)
    : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  if (options_.max_sessions == 0) options_.max_sessions = 1;
  num_shards_ = options_.num_shards;
  shards_.reserve(num_shards_);
  for (unsigned k = 0; k < num_shards_; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->index = k;
    shards_.push_back(std::move(shard));
  }
}

MonitorService::~MonitorService() { stop(); }

void MonitorService::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->worker = std::thread([this, s] { shard_run(*s); });
  }
}

void MonitorService::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    for (auto& shard : shards_) {
      if (shard->worker.joinable()) shard->worker.join();
    }
    return;
  }
  // Detach every remaining session first (their handles stay valid and
  // readable), then signal the shard threads out.
  std::vector<std::shared_ptr<detail::SessionState>> remaining;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    remaining = sessions_;
  }
  for (auto& state : remaining) teardown(state);
  shards_exit_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

MonitorService::Admission MonitorService::admit(
    const SessionOptions& options) {
  Admission result;
  std::shared_ptr<detail::SessionState> state;
  std::size_t active_now = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_.load(std::memory_order_relaxed) ||
        stopping_.load(std::memory_order_relaxed)) {
      result.error = AdmitError::ServiceStopped;
    } else if (options.num_threads == 0 ||
               options.max_pending_per_branch == 0) {
      // A config that can never be valid outranks a transiently-full
      // table: the caller should fix the request, not retry it.
      result.error = AdmitError::BadConfig;
    } else if (sessions_.size() >= options_.max_sessions) {
      result.error = AdmitError::TableFull;
    } else {
      const std::uint64_t quota = options.report_quota != 0
                                      ? options.report_quota
                                      : options_.default_report_quota;
      state = std::make_shared<detail::SessionState>(
          next_session_id_++, options, quota, num_shards_,
          options_.queue_capacity);
      sessions_.push_back(state);
      ++sessions_admitted_;
      registry_version_.fetch_add(1, std::memory_order_release);
      active_now = sessions_.size();
    }
    if (!state) ++sessions_rejected_;
  }
  if (!state) {
    telemetry::counter_add(telemetry::Counter::SessionsRejected);
    return result;
  }
  telemetry::gauge_set(telemetry::Gauge::ActiveSessions, active_now);
  telemetry::counter_add(telemetry::Counter::SessionsAdmitted);
  telemetry::record_event(telemetry::EventKind::SessionAdmitted,
                          telemetry::Phase::MonitorCheck, state->id,
                          options.num_threads, state->quota);
  result.session.reset(new MonitorSession(this, std::move(state)));
  return result;
}

ServiceStats MonitorService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats out;
  out.sessions_admitted = sessions_admitted_;
  out.sessions_rejected = sessions_rejected_;
  out.sessions_evicted = sessions_evicted_;
  out.active_sessions = sessions_.size();
  return out;
}

std::size_t MonitorService::active_sessions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

// ---------------------------------------------------------------------------
// MonitorSession: the per-tenant BranchSink handle.
// ---------------------------------------------------------------------------

MonitorSession::MonitorSession(MonitorService* service,
                               std::shared_ptr<detail::SessionState> state)
    : service_(service), state_(std::move(state)) {}

MonitorSession::~MonitorSession() { close(); }

void MonitorSession::send(const BranchReport& report) {
  service_->session_send(*state_, report);
}

void MonitorSession::flush(std::uint32_t thread) {
  service_->session_flush(*state_, thread);
}

bool MonitorSession::violation_detected() const {
  return state_->violation_count.load(std::memory_order_acquire) != 0;
}

MonitorHealth MonitorSession::health() const { return state_->health.get(); }

SamplingController* MonitorSession::sampler() {
  return state_->sampler.active() ? &state_->sampler : nullptr;
}

bool MonitorSession::quiesce() {
  return service_->session_quiesce(*state_);
}

bool MonitorSession::finalize_section() {
  return service_->post_session_command(*state_, Command::Finalize);
}

bool MonitorSession::reset_epoch() {
  return service_->session_reset_epoch(*state_);
}

void MonitorSession::close() { service_->teardown(state_); }

SessionId MonitorSession::id() const { return state_->id; }

unsigned MonitorSession::num_threads() const {
  return state_->options.num_threads;
}

const std::vector<Violation>& MonitorSession::violations() const {
  return state_->final_violations;
}

MonitorStats MonitorSession::stats() const {
  // A producer call that raced close() counts its report as a drop after
  // the detach merge ran; fold the producer counters again so it is not
  // lost.
  MonitorStats m = state_->final_stats;
  fold_producer_stats(m, state_->sampler, state_->producers);
  return m;
}

}  // namespace bw::runtime
