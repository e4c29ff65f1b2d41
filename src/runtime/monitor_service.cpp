#include "runtime/monitor_service.h"

#include "runtime/consumer.h"
#include "runtime/spsc_queue.h"
#include "support/diagnostics.h"
#include "support/prng.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

const char* to_string(AdmitError error) {
  switch (error) {
    case AdmitError::None: return "none";
    case AdmitError::Busy: return "busy";
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
  /// Per-shard watchdog, run against this session's beat on that shard (a
  /// frozen tenant fails its session, never the shard). The quota gate
  /// reads it too.
  std::vector<StallClock> stall;
  /// The quota gate's give-up clock, run against released_reports.
  StallClock quota_stall;
};

/// Releases each burst's popped reports from the session's quota; a
/// session without one never claimed them.
struct QuotaRelease {
  std::atomic<std::uint64_t>& queued;
  std::atomic<std::uint64_t>& released;
  bool metered;
  void operator()(std::uint64_t count) const {
    if (!metered) return;
    queued.fetch_sub(count, std::memory_order_release);
    released.fetch_add(count, std::memory_order_relaxed);
  }
};

/// Everything a session owns. Shared (via shared_ptr) between the
/// session handle, the service's live slot, and each shard's reference,
/// so a detaching session's state outlives its slot.
struct SessionState {
  SessionState(SessionId id_, const SessionOptions& opts,
               unsigned num_shards_, std::size_t ring_capacity)
      : id(id_),
        options(opts),
        quota(opts.report_quota),
        publish_at(quota == 0 || quota >= SpscQueue<BranchReport>::kStride
                       ? SpscQueue<BranchReport>::kStride
                       : static_cast<std::size_t>(quota)),
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
          QuotaRelease{queued_reports, released_reports, quota != 0}));
    }
  }

  const SessionId id;
  const SessionOptions options;
  const std::uint64_t quota;  // 0 = none
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
  /// the session quota gates on. Incremented by producers when a
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
// Shard side: one thread per shard, visiting the live session.
// ---------------------------------------------------------------------------

struct MonitorService::Shard {
  unsigned index = 0;
  std::thread worker;
  SessionId session_id = 0;
  std::shared_ptr<detail::SessionState> session;
};

void MonitorService::shard_run(Shard& shard) {
  telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                            "service.shard.drain");
  while (true) {
    if (live_id_.load(std::memory_order_acquire) != shard.session_id) {
      std::lock_guard<std::mutex> lock(mutex_);
      shard.session = live_;
      shard.session_id = live_id_.load(std::memory_order_relaxed);
    }
    bool popped = false;
    // A session still tearing down is visited like any other, so the
    // residual runs close() publishes never wait on a ring nobody drains;
    // one whose detach this shard executed is never visited again.
    if (shard.session != nullptr &&
        !shard.session->mailbox.detached(shard.index)) {
      popped = shard.session->shard_tenants[shard.index]->visit();
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

unsigned MonitorService::shard_of(const BranchReport& report) const {
  // Keyed by (ctx, static_id): a branch lives wholly in one shard.
  return static_cast<unsigned>(
      support::hash_combine(report.ctx_hash, report.static_id) % num_shards_);
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
  const unsigned shard = shard_of(report);
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
    // the watchdog about this session's beat on the refusing shard: one
    // wedged shard trips Failed exactly like the legacy single consumer.
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

/// The session's quota gate for a run bound to `shard`: claim (CAS),
/// then the backoff ladder, which here also stops once the session leaves
/// kActive, repeated (as on a full ring) while the shards released reports
/// within the give-up grace. A gate already seen stuck — released_reports
/// frozen past the grace, and the shard's beat for this session standing
/// still as long — gives up at once instead of re-running a ladder that
/// cannot succeed, and a beat frozen for the watchdog deadline fails the
/// session as the ring path does. On failure the caller samples down and
/// drops. Only sessions with a quota come here.
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
  if (s.quota != 0 && !acquire_quota(s, thread, shard, count)) {
    // Over quota after the full ladder: the final rungs — sample down,
    // degrade, discard the run. All side effects are session-local.
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
  // are quiescent by the recovery contract, and every shard acked the
  // reset, so none writes its core's counters until the next command.
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.reset();
    live_id_.store(0, std::memory_order_release);
  }
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
  // Detach the live session first (its handle stays valid and readable),
  // then signal the shard threads out.
  std::shared_ptr<detail::SessionState> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live = live_;
  }
  if (live != nullptr) teardown(live);
  shards_exit_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

MonitorService::Admission MonitorService::admit(
    const SessionOptions& options) {
  Admission result;
  std::shared_ptr<detail::SessionState> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_.load(std::memory_order_relaxed) ||
        stopping_.load(std::memory_order_relaxed)) {
      result.error = AdmitError::ServiceStopped;
    } else if (options.num_threads == 0 ||
               options.max_pending_per_branch == 0) {
      // A config that can never be valid outranks a busy service: the
      // caller should fix the request, not retry it.
      result.error = AdmitError::BadConfig;
    } else if (live_ != nullptr) {
      result.error = AdmitError::Busy;
    } else {
      state = std::make_shared<detail::SessionState>(
          next_session_id_++, options, num_shards_, options_.queue_capacity);
      live_ = state;
      live_id_.store(state->id, std::memory_order_release);
    }
  }
  if (!state) {
    telemetry::counter_add(telemetry::Counter::SessionsRejected);
    return result;
  }
  telemetry::counter_add(telemetry::Counter::SessionsAdmitted);
  telemetry::record_event(telemetry::EventKind::SessionAdmitted,
                          telemetry::Phase::MonitorCheck, state->id,
                          options.num_threads, state->quota);
  result.session.reset(new MonitorSession(this, std::move(state)));
  return result;
}

// ---------------------------------------------------------------------------
// MonitorSession: the session's BranchSink handle.
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
