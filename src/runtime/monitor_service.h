// Sharded monitor service: one or many concurrent program instances
// (sessions) sharing one long-lived pool of checker shards, with failure
// domains that are per-session BY CONSTRUCTION. It is the scalability
// successor to the single-consumer Monitor (paper Section III-B), which
// Figures 6-7 show flat-lining as producers multiply: one thread drains
// every queue and files every report into one table. pipeline::execute()
// with monitor_shards >= 1 runs its program as the only session of a
// private service; a long-lived service hosts many programs at once.
//
// Every shard runs the consumer the legacy Monitor runs (consumer.h),
// visiting each session's tenant on that shard in turn: the same visit,
// beat, command mailbox, quiesce predicate, stall freeze, delay deferral
// and burst drain, the same producer give-up path and the same bounded
// recovery wait. Two structural changes relative to the legacy Monitor,
// both invisible to verdicts:
//
//   * Batching. Producers accumulate reports into small per-thread,
//     per-shard batches and push ONE ring entry per batch instead of per
//     report. Batches flush on size, on parallel-section exit
//     (BranchSink::flush), on health transitions, and at session close.
//   * Sharding. K checker shards each own the branch keys that hash to
//     them. Routing happens on the producer, so every ring keeps exactly
//     one producer and one consumer and the fabric stays lock-free.
//
// Verdict invariance: a (session, branch) pair maps wholly to one shard,
// so the per-branch instance lifecycle is the legacy algorithm run on a
// partition of the key space, and batching only changes *when* reports
// cross the ring, never their per-producer order or content.
// tests/monitor_differential_test.cpp checks this against a
// single-threaded BranchTable replay over randomized kernels.
//
// A service hosting many programs must also contain cross-tenant
// failures — one misbehaving session exhausting shared queues, or one
// session's injected fault degrading health for everyone — so it keys
// EVERYTHING a fault can touch by session:
//
//   * Routing. A report's shard is hash(session, ctx, static_id) % K.
//   * State. Each (session, shard) pair owns a private BranchTable, its
//     own SPSC rings (one per producer thread), a per-session sticky
//     HealthCell, SamplingController, violation counter, and recovery
//     command mailbox. No table, counter, or health bit is shared
//     between sessions, so a QueueCorrupt / ReportDrop / TargetedFlip
//     fault in one session cannot flip another session's verdicts.
//   * Time. A session-scoped MonitorStall freezes only its own tenant
//     (no draining, no beat), never the shared shard thread, so only the
//     stalled session's watchdog trips Failed while its neighbors keep
//     full checking. The delay hook likewise defers only its own
//     tenant's next visit.
//   * Capacity. Each session holds a quota on queued (in-ring) reports.
//     A producer over quota runs the backoff ladder generalized to
//     per-tenant backpressure — spin, then yield (again while the shards
//     keep releasing the session's reports), then sample-down
//     (SamplingController::note_pressure) and drop, degrading only its
//     own session's health. Other tenants' rings and quotas are
//     untouched, so a noisy neighbor throttles itself.
//
// Admission is explicit and bounded: admit() returns a typed AdmitError
// when the session table is full (or the service is stopping), never a
// silently-degraded session. Teardown (MonitorSession::close, or the
// session handle's destructor) may race the session's own producers: it
// latches the session, waits for in-flight producer calls to retire (a
// Dekker guard), flushes residual open batches (shards keep draining the
// session meanwhile), broadcasts a detach command, and each shard drains
// that tenant's rings, finalizes its table and acks, after which teardown
// merges the results — all while other sessions' producers keep sending.
// A producer call that arrives after the latch is counted as a drop,
// never lost or raced.
//
// Lifetime contract: MonitorSession handles must not outlive the
// MonitorService that admitted them. MonitorService::stop() (and the
// service destructor) force-detaches every remaining session; a
// subsequent close() on the handle is a no-op and its stats stay
// readable.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/monitor.h"  // MonitorStats
#include "runtime/monitor_interface.h"
#include "runtime/report.h"
#include "runtime/resilience.h"
#include "runtime/sampling.h"

namespace bw::runtime {

/// The unit that crosses a producer->shard ring: up to kMax reports, in
/// the producer's send order. Fixed-size so ring slots need no heap.
struct ReportBatch {
  static constexpr std::size_t kMax = 64;
  std::uint32_t count = 0;
  std::array<BranchReport, kMax> reports;
};

using SessionId = std::uint32_t;

/// Why admit() refused a session. None means the admission succeeded.
enum class AdmitError : std::uint8_t {
  None = 0,
  TableFull,       // max_sessions live sessions already admitted
  ServiceStopped,  // service not started, stopping, or stopped
  BadConfig,       // e.g. zero program threads
};
const char* to_string(AdmitError error);

/// Per-session knobs. Everything fault- or verdict-relevant is scoped to
/// the session that sets it; nothing here can affect a neighbor.
struct SessionOptions {
  /// Program threads of this session (producer slots / ring lanes).
  unsigned num_threads = 2;
  /// Cap on this session's queued (pushed-not-yet-processed) reports
  /// across all shards. 0 = the service's default_report_quota.
  std::uint64_t report_quota = 0;
  /// As MonitorOptions: false drains without checking.
  bool perform_checks = true;
  /// Seal/verify per-report checksums (QueueCorrupt defence).
  bool validate_reports = false;
  /// Soft cap on pending instances per level-1 bucket of this session's
  /// tables.
  std::size_t max_pending_per_branch = 1 << 15;
  /// Session-scoped consumer-side fault injection: indices count THIS
  /// session's popped reports per shard; stall/delay/corrupt/drop only
  /// ever touch this session's tenant state.
  MonitorFaultHooks fault_hooks;
  /// Session-private adaptive sampling controller.
  SamplingOptions sampling;
};

struct MonitorServiceOptions {
  /// Checker shards shared by every session; clamped to >= 1.
  unsigned num_shards = 2;
  /// Bound on concurrently-admitted sessions (the session table).
  std::size_t max_sessions = 64;
  /// Reports per producer-side batch; clamped to [1, ReportBatch::kMax].
  std::size_t batch_size = 16;
  /// Ring capacity of each producer->shard queue, in batches. Rings are
  /// per session and, by default, the quota rather than the ring is the
  /// binding capacity limit.
  std::size_t batch_queue_capacity = 64;
  /// Default per-session queued-report quota (SessionOptions can
  /// override per session).
  std::uint64_t default_report_quota = 1 << 16;
  /// Producer backoff ladder, applied per session (ring pushes and the
  /// quota gate).
  BackoffPolicy backoff;
  /// Per-session watchdog: producers compare their session's beat on a
  /// shard (not a global one) against this deadline.
  WatchdogOptions watchdog;
};

/// Service-level aggregates (session admission lifecycle). Per-session
/// verdict/drop/throttle detail lives in each session's MonitorStats.
struct ServiceStats {
  std::uint64_t sessions_admitted = 0;
  std::uint64_t sessions_rejected = 0;
  std::uint64_t sessions_evicted = 0;
  std::size_t active_sessions = 0;
};

namespace detail {
struct SessionState;
}  // namespace detail

enum class Command : int;  // consumer.h

class MonitorService;

/// The per-tenant BranchSink handle returned by MonitorService::admit().
/// Plugs into vm::RunOptions::monitor exactly like Monitor; every call
/// routes through the session's own state.
/// Producer methods (send/flush) follow the BranchSink threading
/// contract; close() and the recovery calls are single-caller.
class MonitorSession : public BranchSink {
 public:
  ~MonitorSession() override;

  MonitorSession(const MonitorSession&) = delete;
  MonitorSession& operator=(const MonitorSession&) = delete;

  void send(const BranchReport& report) override;
  void flush(std::uint32_t thread) override;

  bool violation_detected() const override;
  MonitorHealth health() const override;
  SamplingController* sampler() override;

  // Recovery protocol, scoped to this session: reset_epoch discards only
  // this session's rings/tables/violations, quiesce waits only on this
  // session's queued reports. Neighbor sessions are never paused.
  bool supports_recovery() const override { return true; }
  bool quiesce() override;
  bool finalize_section() override;
  bool reset_epoch() override;

  /// Tear the session down: drain in-flight batches, detach the
  /// per-shard tenant tables, free the session slot. Idempotent; called
  /// by the destructor if the caller did not. After close(),
  /// violations()/stats() hold the session's final merged results.
  void close();

  SessionId id() const;
  unsigned num_threads() const;
  /// Only valid after close() (shard results are merged at detach).
  const std::vector<Violation>& violations() const;
  /// Only valid after close(). Producer drop counters are re-read on
  /// every call, so a send() that raced close() still shows up here.
  MonitorStats stats() const;

 private:
  friend class MonitorService;
  MonitorSession(MonitorService* service,
                 std::shared_ptr<detail::SessionState> state);

  MonitorService* service_;
  std::shared_ptr<detail::SessionState> state_;
};

class MonitorService {
 public:
  explicit MonitorService(MonitorServiceOptions options = {});
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Launch the shared shard threads. Must precede any admit().
  void start();

  /// Refuse new admissions, force-detach every remaining session (their
  /// handles stay valid; close() becomes a no-op), and join the shards.
  /// Idempotent.
  void stop();

  struct Admission {
    std::unique_ptr<MonitorSession> session;  // null iff error != None
    AdmitError error = AdmitError::None;
  };

  /// Admit one session. Bounded: at most max_sessions live sessions; the
  /// caller gets a typed error (and a SessionsRejected tick), never an
  /// implicitly-degraded sink.
  Admission admit(const SessionOptions& options = {});

  ServiceStats stats() const;
  unsigned num_shards() const { return num_shards_; }
  std::size_t active_sessions() const;

 private:
  friend class MonitorSession;
  struct Shard;  // shard-thread-private tenant map; defined in the .cpp

  unsigned shard_of(const detail::SessionState& s,
                    const BranchReport& report) const;
  void session_send(detail::SessionState& s, const BranchReport& report);
  void session_flush(detail::SessionState& s, std::uint32_t thread);
  void flush_open(detail::SessionState& s, std::uint32_t thread);
  void flush_batch(detail::SessionState& s, std::uint32_t thread,
                   unsigned shard);
  bool acquire_quota(detail::SessionState& s, std::uint32_t thread,
                     unsigned shard, std::uint32_t count);
  bool post_session_command(detail::SessionState& s, Command command);
  bool session_quiesce(detail::SessionState& s);
  bool session_reset_epoch(detail::SessionState& s);
  void teardown(const std::shared_ptr<detail::SessionState>& state);

  void shard_run(Shard& shard);

  MonitorServiceOptions options_;
  unsigned num_shards_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Session registry: shard threads snapshot it (shared_ptr keeps a
  /// detaching session's state alive until every shard dropped it) and
  /// refresh whenever the version moves.
  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<detail::SessionState>> sessions_;
  std::atomic<std::uint64_t> registry_version_{0};
  SessionId next_session_id_ = 1;  // under mutex_
  std::uint64_t sessions_admitted_ = 0;  // under mutex_
  std::uint64_t sessions_rejected_ = 0;  // under mutex_
  std::uint64_t sessions_evicted_ = 0;   // under mutex_

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};     // admission latch
  std::atomic<bool> shards_exit_{false};  // shard exit signal (post-detach)
};

}  // namespace bw::runtime
