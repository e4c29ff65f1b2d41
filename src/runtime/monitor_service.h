// Sharded monitor service: a long-lived pool of checker shards that hosts
// one program instance (a session) at a time. It is the scalability
// successor to the single-consumer Monitor (paper Section III-B), which
// Figures 6-7 show flat-lining as producers multiply: one thread drains
// every queue and files every report into one table. pipeline::execute()
// with monitor_shards >= 1 runs its program as the session of a private
// service; a long-lived service runs its sessions one after another on
// the same shard threads.
//
// A session is the sink the legacy Monitor is built from (consumer.h
// detail::Sink) with one consumer per shard: the same producer path,
// publish points, recovery calls, teardown and stats fold, over the same
// wire of single reports staged into rings and published in runs. What
// the service adds, invisible to verdicts:
//
//   * Sharding. K checker shards each own the branch keys that hash to
//     them: a report's shard is hash(ctx, static_id) % K. Routing happens
//     on the producer, so every ring keeps exactly one producer and one
//     consumer and the fabric stays lock-free. Each (thread, shard) lane
//     stages into its own ring and publishes its run at the sink's
//     publish points; a run of a session with a quota claims its count
//     from the quota first.
//   * The live-session slot and admission (one session at a time).
//   * The in-flight guard: send() and flush() hold it across a phase
//     check, so close() may race the session's own producers.
//
// Verdict invariance: a branch maps wholly to one shard, so the
// per-branch instance lifecycle is the legacy algorithm run on a
// partition of the key space, and publication only changes *when*
// reports cross the ring, never their per-producer order or content.
// tests/monitor_differential_test.cpp checks this against a
// single-threaded BranchTable replay over randomized kernels.
//
// Each session owns everything a fault can touch: per shard a private
// BranchTable and its own SPSC rings (one per producer thread), plus a
// sticky HealthCell, SamplingController, violation counter and recovery
// command mailbox. A session-scoped MonitorStall freezes only the
// session's tenant (no draining, no beat), never the shard thread, and
// the delay hook defers only the tenant's next visit, so the shards serve
// the next session unharmed. An optional quota caps the session's queued
// (published, not yet filed) reports: a run over quota runs the backoff
// ladder, then samples down (SamplingController::note_pressure) and
// discards the run, degrading the session's health.
//
// Admission is explicit: admit() returns a typed AdmitError while a
// session is live (Busy) or when the service is stopping, never a
// silently-degraded session. Teardown (MonitorSession::close, or the
// session handle's destructor) may race the session's own producers: it
// latches the session, waits for in-flight producer calls to retire (a
// Dekker guard), publishes the residual staged runs (shards keep draining
// the session meanwhile), broadcasts a detach command, and each shard
// drains the tenant's rings, finalizes its table and acks, after which
// teardown merges the results and frees the slot. A producer call that
// arrives after the latch is counted as a drop, never lost or raced.
//
// Lifetime contract: MonitorSession handles must not outlive the
// MonitorService that admitted them. MonitorService::stop() (and the
// service destructor) force-detaches the live session; a subsequent
// close() on the handle is a no-op and its stats stay readable.
#pragma once

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

using SessionId = std::uint32_t;

/// Why admit() refused a session. None means the admission succeeded.
enum class AdmitError : std::uint8_t {
  None = 0,
  Busy,            // a session is live; one runs at a time
  ServiceStopped,  // service not started, stopping, or stopped
  BadConfig,       // e.g. zero program threads
};
const char* to_string(AdmitError error);

/// Per-session knobs. Everything fault- or verdict-relevant is scoped to
/// the session that sets it.
struct SessionOptions {
  /// Program threads of this session (producer slots / ring lanes).
  unsigned num_threads = 2;
  /// Cap on this session's queued (published-not-yet-filed) reports
  /// across all shards. 0 = no quota: only the rings apply backpressure.
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
  /// Checker shards; clamped to >= 1.
  unsigned num_shards = 2;
  /// Ring size hint of each producer->shard queue, in reports (as
  /// MonitorOptions::queue_capacity). Rings are per session.
  std::size_t queue_capacity = 1024;
  /// Producer backoff ladder, applied per session (ring pushes and the
  /// quota gate).
  BackoffPolicy backoff;
  /// Per-session watchdog: producers compare their session's beat on a
  /// shard (not a global one) against this deadline.
  WatchdogOptions watchdog;
};

/// The session and service shape of a MonitorOptions, for `num_threads`
/// program threads (no quota) on `num_shards` shards: one translation for
/// execute(), the Monitor's own sink and tests.
SessionOptions session_options_for(const MonitorOptions& options,
                                   unsigned num_threads);
MonitorServiceOptions service_options_for(const MonitorOptions& options,
                                          unsigned num_shards);

namespace detail {
class Sink;  // consumer.h
}  // namespace detail

class MonitorService;

/// The session's BranchSink handle returned by MonitorService::admit().
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

  // Recovery protocol, scoped to this session (the sink's, as on the
  // Monitor): quiesce and finalize_section publish the staged runs first,
  // reset_epoch discards them with the session's published reports,
  // tables and violations. The shard threads are never paused.
  bool supports_recovery() const override { return true; }
  bool quiesce() override;
  bool finalize_section() override;
  bool reset_epoch() override;

  /// Tear the session down: publish the staged runs, detach the
  /// per-shard tenant tables, free the service's session slot.
  /// Idempotent; called by the destructor if the caller did not. After
  /// close(), violations()/stats() hold the session's final merged
  /// results.
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
                 std::shared_ptr<detail::Sink> state);

  MonitorService* service_;
  std::shared_ptr<detail::Sink> state_;
};

class MonitorService {
 public:
  explicit MonitorService(MonitorServiceOptions options = {});
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Launch the shared shard threads. Must precede any admit().
  void start();

  /// Refuse new admissions, force-detach the live session (its handle
  /// stays valid; close() becomes a no-op), and join the shards.
  /// Idempotent.
  void stop();

  struct Admission {
    std::unique_ptr<MonitorSession> session;  // null iff error != None
    AdmitError error = AdmitError::None;
  };

  /// Admit one session. At most one is live at a time: while it is, the
  /// caller gets AdmitError::Busy (and a SessionsRejected tick), never an
  /// implicitly-degraded sink.
  Admission admit(const SessionOptions& options = {});

  unsigned num_shards() const { return num_shards_; }

 private:
  friend class MonitorSession;
  struct Shard;  // shard-thread-private state; defined in the .cpp

  unsigned shard_of(const BranchReport& report) const;
  void teardown(const std::shared_ptr<detail::Sink>& state);

  void shard_run(Shard& shard);

  MonitorServiceOptions options_;
  unsigned num_shards_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The live session slot. Each shard keeps its own reference (the
  /// shared_ptr keeps a detaching session's state alive until every shard
  /// dropped it) and refreshes it whenever live_id_ moves.
  std::mutex mutex_;
  std::shared_ptr<detail::Sink> live_;  // under mutex_
  std::atomic<SessionId> live_id_{0};           // 0 = no live session
  SessionId next_session_id_ = 1;               // under mutex_

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};     // admission latch
  std::atomic<bool> shards_exit_{false};  // shard exit signal (post-detach)
};

}  // namespace bw::runtime
