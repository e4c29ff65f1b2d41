#include "runtime/monitor_service.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

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
enum SessionCommand {
  kCmdNone = 0,
  kCmdReset = 1,
  kCmdFinalize = 2,
  kCmdDetach = 3,
};

/// Producer-thread-private state, one slot per program thread of the
/// session. Cacheline-aligned; only `dropped` and `in_flight` are read
/// by other threads.
struct alignas(64) ProducerSlot {
  std::atomic<std::uint64_t> dropped{0};
  /// Dekker-style teardown guard: a producer call increments (seq_cst)
  /// then checks the session phase; teardown latches the phase then
  /// waits for zero, so the open batches are never mutated from two
  /// threads.
  std::atomic<std::uint32_t> in_flight{0};
  std::vector<ReportBatch> open;  // one open batch per shard
  MonitorHealth last_health = MonitorHealth::Healthy;
  /// Edge-detector for throttle episodes (one event per entry into the
  /// over-quota regime, not per dropped batch).
  bool throttling = false;
  /// Per-shard watchdog, run against this SESSION's progress counter on
  /// that shard (a frozen tenant fails only its own session).
  std::vector<StallClock> stall;
  /// The quota gate's give-up clock, run against released_reports.
  StallClock quota_stall;
};

/// Per-(session, shard) shared cells: the shard bumps progress on every
/// visit it could drain (producers' watchdog reads it) and echoes the
/// last command sequence it executed.
struct alignas(64) ShardSlot {
  std::atomic<std::uint64_t> progress{0};
  std::atomic<std::uint64_t> command_ack{0};
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
        num_shards(num_shards_),
        producers(opts.num_threads),
        shard_slots(num_shards_),
        shard_cores(num_shards_),
        sampler(opts.sampling) {
    rings.resize(opts.num_threads);
    for (auto& lane : rings) {
      lane.reserve(num_shards_);
      for (unsigned k = 0; k < num_shards_; ++k) {
        lane.push_back(
            std::make_unique<SpscQueue<ReportBatch>>(ring_capacity));
      }
    }
    for (ProducerSlot& slot : producers) {
      slot.open.resize(num_shards_);
      slot.stall.resize(num_shards_);
    }
  }

  const SessionId id;
  const SessionOptions options;
  const std::uint64_t quota;
  const unsigned num_shards;

  std::vector<ProducerSlot> producers;
  /// rings[producer][shard]: every ring keeps exactly one producer (the
  /// program thread) and one consumer (the shard), so the whole fabric
  /// stays lock-free per session too.
  std::vector<std::vector<std::unique_ptr<SpscQueue<ReportBatch>>>> rings;
  std::vector<ShardSlot> shard_slots;
  /// Each shard's consumer core for this session, handed over by the shard
  /// thread right before it acks the detach command (the release-store of
  /// the ack orders the hand-over against the teardown-side merge).
  std::vector<std::unique_ptr<TenantCore>> shard_cores;

  /// Reports pushed but not yet processed, across all shards — the value
  /// the per-tenant quota gates on. Incremented by producers when a
  /// batch claims quota, decremented by shards after a batch is filed.
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
  /// Session-scoped recovery/teardown command mailbox (sequence
  /// broadcast, per-shard acks in shard_slots).
  std::atomic<int> cmd_kind{kCmdNone};
  std::atomic<std::uint64_t> cmd_seq{0};

  /// Reports discarded from producer-side open batches by reset_epoch
  /// (caller-owned; producers quiescent by the recovery contract).
  std::uint64_t producer_reports_rolled_back = 0;

  // Final merged results; written by teardown before phase -> Detached.
  MonitorStats final_stats;
  std::vector<Violation> final_violations;

  SinkCells cells() { return {health, sampler, violation_count}; }

  /// Broadcasts `command` to every shard; returns its sequence number.
  std::uint64_t post(int command) {
    cmd_kind.store(command, std::memory_order_relaxed);
    return cmd_seq.fetch_add(1, std::memory_order_release) + 1;
  }
  bool acked(unsigned shard, std::uint64_t seq) const {
    return shard_slots[shard].command_ack.load(std::memory_order_acquire) >=
           seq;
  }
  bool all_acked(std::uint64_t seq) const {
    for (unsigned k = 0; k < num_shards; ++k) {
      if (!acked(k, seq)) return false;
    }
    return true;
  }
};

}  // namespace detail

namespace {

struct InFlightGuard {
  std::atomic<std::uint32_t>& count;
  ~InFlightGuard() { count.fetch_sub(1, std::memory_order_release); }
};

/// Merge the shard cores handed over with detach `seq`, producer counters,
/// throttle accounting and sampling stats into the session's final
/// MonitorStats, freeing each core. Runs on the teardown thread; a shard
/// that never acked the detach handed nothing over and is skipped.
void merge_session_results(detail::SessionState& s, std::uint64_t seq) {
  MonitorStats m;
  s.final_violations.clear();
  for (unsigned k = 0; k < s.num_shards; ++k) {
    if (!s.acked(k, seq) || !s.shard_cores[k]) continue;
    const TenantCore& core = *s.shard_cores[k];
    s.final_violations.insert(s.final_violations.end(),
                              core.table.violations().begin(),
                              core.table.violations().end());
    core.fold(m);
    s.shard_cores[k].reset();
  }
  m.violations = s.final_violations.size();
  m.reports_rolled_back += s.producer_reports_rolled_back;
  m.reports_throttled = s.reports_throttled.load(std::memory_order_relaxed);
  m.throttle_events = s.throttle_events.load(std::memory_order_relaxed);
  m.quota_peak = s.quota_peak.load(std::memory_order_relaxed);
  fold_producer_stats(m, s.sampler, s.producers);
  s.final_stats = std::move(m);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shard side: one thread per shard, a private tenant map per shard.
// ---------------------------------------------------------------------------

struct MonitorService::Shard {
  unsigned index = 0;
  std::thread worker;
  std::uint64_t snapshot_version = ~std::uint64_t{0};
  std::vector<std::shared_ptr<detail::SessionState>> snapshot;

  /// This shard's slice of one session: a consumer core over the
  /// (session, key) pairs that route here, whose hook indices count this
  /// session's pops on this shard. Handed to the session at detach, where
  /// teardown merges and frees it.
  struct Tenant {
    Tenant(detail::SessionState* s, unsigned shard)
        : core(std::make_unique<TenantCore>(
              s->cells(), s->options.num_threads, s->options,
              s->options.fault_hooks.shard_filter ==
                      MonitorFaultHooks::kAllShards ||
                  s->options.fault_hooks.shard_filter == shard)) {}
    std::unique_ptr<TenantCore> core;
    std::uint64_t command_seen = 0;
    /// A session-scoped MonitorStall wedges only this tenant: the shard
    /// stops draining it and stops bumping its progress counter, so only
    /// this session's watchdog trips.
    bool stalled = false;
    /// Per-report delay hook, tenant-local: defers this tenant's next
    /// drain visit instead of sleeping the shared shard thread.
    std::chrono::steady_clock::time_point resume_at{};
  };
  std::unordered_map<detail::SessionState*, Tenant> tenants;

  void drain_batch(Tenant& tenant, ReportBatch& batch);
  std::uint64_t drain_rings(Tenant& tenant, detail::SessionState& s,
                            bool file);
  void run_command(Tenant& tenant, detail::SessionState& s, int command);
};

/// Files one batch through the tenant's core. Each shard is an independent
/// consumer (narrowed to one by shard_filter), and every side effect lands
/// on this session alone. A shard's reaction to the stall hook is to
/// freeze this tenant, never the shared shard thread, and its delay hook
/// defers the tenant's next visit by the whole batch.
void MonitorService::Shard::drain_batch(Tenant& tenant, ReportBatch& batch) {
  TenantCore& core = *tenant.core;
  for (std::uint32_t i = 0; i < batch.count; ++i) {
    if (tenant.stalled) {
      // The stall hook fired on an earlier report (possibly mid-batch,
      // possibly during a detach drain): nothing past it is ever
      // processed, no matter which code path is popping. The remainder
      // surfaces as this session's drops, under its own degraded health.
      core.pops.dropped += batch.count - i;
      core.sink.raise(MonitorHealth::Degraded);
      return;
    }
    if (core.file(batch.reports[i]) == PopVerdict::Stall) {
      tenant.stalled = true;
    }
  }
  if (core.hooks_apply && core.hooks.delay_ns_per_report != 0) {
    tenant.resume_at =
        std::chrono::steady_clock::now() +
        std::chrono::nanoseconds(core.hooks.delay_ns_per_report * batch.count);
  }
}

/// Pops every batch queued for this tenant on this shard, filing it when
/// `file`; returns how many reports were popped unfiled.
std::uint64_t MonitorService::Shard::drain_rings(Tenant& tenant,
                                                 detail::SessionState& s,
                                                 bool file) {
  ReportBatch batch;
  std::uint64_t unfiled = 0;
  for (unsigned t = 0; t < s.options.num_threads; ++t) {
    SpscQueue<ReportBatch>& ring = *s.rings[t][index];
    while (ring.try_pop(batch)) {
      if (file) {
        drain_batch(tenant, batch);
      } else {
        unfiled += batch.count;
      }
      s.queued_reports.fetch_sub(batch.count, std::memory_order_release);
      s.released_reports.fetch_add(batch.count, std::memory_order_relaxed);
    }
  }
  return unfiled;
}

void MonitorService::Shard::run_command(Tenant& tenant,
                                        detail::SessionState& s,
                                        int command) {
  TenantCore& core = *tenant.core;
  if (command == detail::kCmdReset) {
    // Rollback: discard this session's in-flight timeline on this shard.
    core.reset(drain_rings(tenant, s, /*file=*/false));
  } else if (command == detail::kCmdFinalize) {
    drain_rings(tenant, s, /*file=*/true);
    core.finalize();
  } else if (command == detail::kCmdDetach) {
    // A stalled tenant is wedged by its own injected fault; counting its
    // undrained reports as drops (under its own degraded health) keeps
    // the session honest without replaying a faulted timeline. The stall
    // may also first fire DURING this drain — drain_batch then discards
    // the remainder — so the health raise comes after the drain.
    core.pops.dropped += drain_rings(tenant, s, /*file=*/!tenant.stalled);
    if (tenant.stalled) core.sink.raise(MonitorHealth::Degraded);
    core.finalize();
    s.shard_cores[index] = std::move(tenant.core);
  }
}

void MonitorService::shard_run(Shard& shard) {
  telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                            "service.shard.drain");
  ReportBatch batch;
  while (true) {
    if (registry_version_.load(std::memory_order_acquire) !=
        shard.snapshot_version) {
      std::lock_guard<std::mutex> lock(mutex_);
      shard.snapshot = sessions_;
      shard.snapshot_version =
          registry_version_.load(std::memory_order_relaxed);
    }
    bool drained_any = false;
    for (auto& sp : shard.snapshot) {
      detail::SessionState& s = *sp;
      const std::uint64_t seq = s.cmd_seq.load(std::memory_order_acquire);
      const bool acked =
          s.shard_slots[shard.index].command_ack.load(
              std::memory_order_relaxed) >= seq;
      if (acked &&
          s.cmd_kind.load(std::memory_order_relaxed) == detail::kCmdDetach) {
        // This shard already executed the session's detach, which freed
        // its tenant slot: never resurrect one. A session that is still
        // tearing down is drained like any other, so the residual batches
        // close() flushes never wait on a ring nobody drains.
        continue;
      }
      auto [it, inserted] = shard.tenants.try_emplace(&s, &s, shard.index);
      Shard::Tenant& tenant = it->second;
      if (seq != tenant.command_seen) {
        const int cmd = s.cmd_kind.load(std::memory_order_acquire);
        shard.run_command(tenant, s, cmd);
        tenant.command_seen = seq;
        s.shard_slots[shard.index].command_ack.store(
            seq, std::memory_order_release);
        if (cmd == detail::kCmdDetach) {
          shard.tenants.erase(it);  // frees this tenant's tables
          continue;
        }
      }
      if (tenant.stalled) continue;  // frozen: no drain, no progress
      s.shard_slots[shard.index].progress.fetch_add(
          1, std::memory_order_release);
      if (tenant.resume_at.time_since_epoch().count() != 0 &&
          std::chrono::steady_clock::now() < tenant.resume_at) {
        continue;  // delay hook: this tenant's visit is deferred
      }
      for (unsigned t = 0; t < s.options.num_threads; ++t) {
        SpscQueue<ReportBatch>& ring = *s.rings[t][shard.index];
        int burst = 32;
        while (burst-- > 0 && ring.try_pop(batch)) {
          drained_any = true;
          shard.drain_batch(tenant, batch);
          s.queued_reports.fetch_sub(batch.count, std::memory_order_release);
          s.released_reports.fetch_add(batch.count,
                                       std::memory_order_relaxed);
          if (tenant.stalled) break;
        }
        if (tenant.stalled) break;
      }
    }
    if (!drained_any) {
      if (shards_exit_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
  }
  // Defensive: stop() detaches every registered session first, so this
  // only fires for state kept alive by a leaked handle. Hand over anyway.
  for (auto& [state, tenant] : shard.tenants) {
    tenant.core->finalize();
    state->shard_cores[shard.index] = std::move(tenant.core);
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
    flush_open(s, report.thread);
  }
  if (s.sampler.active() &&
      !s.sampler.should_check(report.ctx_hash, report.static_id,
                              report.iter_hash)) {
    return;  // instance deterministically sampled out on every thread
  }
  telemetry::counter_add(telemetry::Counter::ReportsSent);
  const unsigned shard = shard_of(s, report);
  ReportBatch& batch = slot.open[shard];
  BranchReport& dest = batch.reports[batch.count++];
  dest = report;
  if (s.options.validate_reports) seal_report(dest);
  if (batch.count >= options_.batch_size) {
    flush_batch(s, report.thread, shard);
  }
}

void MonitorService::session_flush(detail::SessionState& s,
                                   std::uint32_t thread) {
  BW_INTERNAL_CHECK(thread < s.options.num_threads,
                    "flush from out-of-range thread");
  detail::ProducerSlot& slot = s.producers[thread];
  slot.in_flight.fetch_add(1, std::memory_order_seq_cst);
  InFlightGuard guard{slot.in_flight};
  if (s.phase.load(std::memory_order_seq_cst) != detail::kActive) {
    return;  // teardown owns the open batches from here on
  }
  flush_open(s, thread);
}

void MonitorService::flush_open(detail::SessionState& s,
                                std::uint32_t thread) {
  for (unsigned k = 0; k < num_shards_; ++k) {
    const std::uint32_t pending = s.producers[thread].open[k].count;
    if (pending == 0) continue;
    telemetry::record_event(telemetry::EventKind::ShardFlush,
                            telemetry::Phase::MonitorCheck, thread, k,
                            pending);
    flush_batch(s, thread, k);
  }
}

/// The per-tenant quota gate: claim (CAS), then the backoff ladder, which
/// here also stops once the session leaves kActive, repeated (as on a
/// full ring) while the shards released reports within the give-up grace.
/// On failure the caller samples down and drops. Only this session's
/// producers ever wait here; the quota counter is session-private.
bool MonitorService::acquire_quota(detail::SessionState& s,
                                   std::uint32_t thread,
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
  StallClock& clock = s.producers[thread].quota_stall;
  while (!run_backoff(options_.backoff, try_claim, stop)) {
    if (stop() ||
        clock.frozen_for(s.released_reports.load(std::memory_order_relaxed),
                         grace)) {
      return false;
    }
  }
  return true;
}

void MonitorService::flush_batch(detail::SessionState& s,
                                 std::uint32_t thread, unsigned shard) {
  detail::ProducerSlot& slot = s.producers[thread];
  ReportBatch& batch = slot.open[shard];
  const std::uint32_t count = batch.count;
  if (count == 0) return;
  if (s.health.get() == MonitorHealth::Failed) {
    slot.dropped.fetch_add(count, std::memory_order_relaxed);
    batch.count = 0;
    return;
  }
  if (!acquire_quota(s, thread, count)) {
    // Over quota after the full ladder: the final rungs — sample down,
    // degrade, drop. All side effects are session-local; a noisy tenant
    // throttles itself while its neighbors keep full checking.
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
    batch.count = 0;
    return;
  }
  slot.throttling = false;
  SpscQueue<ReportBatch>& queue = *s.rings[thread][shard];
  auto try_push = [&] { return queue.try_push(batch); };
  // A give-up asks the watchdog about THIS session's progress counter on
  // the refusing shard: one wedged shard trips Failed exactly like the
  // legacy single consumer, and a tenant frozen by its own stall fault
  // trips only its own Failed.
  if (try_push() ||
      push_or_give_up(try_push, s.cells(), options_.backoff,
                      options_.watchdog, thread, shard, count, slot.dropped,
                      slot.stall[shard], s.shard_slots[shard].progress)) {
    telemetry::counter_add(telemetry::Counter::BatchesFlushed);
    telemetry::histogram_record(telemetry::Histogram::BatchFill, count);
  } else {
    s.queued_reports.fetch_sub(count, std::memory_order_release);
  }
  batch.count = 0;
}

// ---------------------------------------------------------------------------
// Session lifecycle and recovery commands.
// ---------------------------------------------------------------------------

bool MonitorService::post_session_command(detail::SessionState& s,
                                          int command) {
  if (!started_.load(std::memory_order_acquire)) return false;
  if (shards_exit_.load(std::memory_order_acquire)) return false;
  if (s.phase.load(std::memory_order_acquire) != detail::kActive) {
    return false;
  }
  if (s.health.get() == MonitorHealth::Failed) return false;
  const std::uint64_t seq = s.post(command);
  return bounded_wait([&] { return s.all_acked(seq); }, options_.watchdog,
                      &s.health);
}

bool MonitorService::session_quiesce(detail::SessionState& s) {
  if (!started_.load(std::memory_order_acquire)) return true;
  if (s.phase.load(std::memory_order_acquire) != detail::kActive) {
    return false;
  }
  // queued_reports is decremented only AFTER a batch is fully filed, so
  // zero means every pushed report of this session has been processed.
  // A tenant frozen by its own stall fault never drains -> deadline.
  return bounded_wait(
      [&] { return s.queued_reports.load(std::memory_order_acquire) == 0; },
      options_.watchdog, &s.health);
}

bool MonitorService::session_reset_epoch(detail::SessionState& s) {
  if (!post_session_command(s, detail::kCmdReset)) return false;
  // Shards discarded this session's in-ring reports and tables; now
  // discard what its producers still hold open and the detection flag.
  // Safe: this session's producers are quiescent by the recovery
  // contract (neighbor sessions keep running; their state is disjoint).
  for (detail::ProducerSlot& slot : s.producers) {
    for (ReportBatch& batch : slot.open) {
      s.producer_reports_rolled_back += batch.count;
      batch.count = 0;
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
  // touch the open batches again.
  for (detail::ProducerSlot& slot : s.producers) {
    while (slot.in_flight.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
  for (unsigned t = 0; t < s.options.num_threads; ++t) flush_open(s, t);
  // Broadcast the detach; every shard drains (or, if its tenant slot is
  // stalled, discards) this session's rings, finalizes its table, and
  // hands its core over before acking. The wait ignores health: a Failed
  // session still detaches.
  const std::uint64_t seq = s.post(detail::kCmdDetach);
  if (!bounded_wait([&] { return s.all_acked(seq); }, options_.watchdog,
                    /*health=*/nullptr)) {
    // A shard thread is truly wedged (session stalls never wedge the
    // shard). Merge only what was handed over; the session is Failed.
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
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.batch_size > ReportBatch::kMax) {
    options_.batch_size = ReportBatch::kMax;
  }
  if (options_.batch_queue_capacity == 0) options_.batch_queue_capacity = 1;
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
          options_.batch_queue_capacity);
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
  return service_->post_session_command(*state_, detail::kCmdFinalize);
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
