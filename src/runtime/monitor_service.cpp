#include "runtime/monitor_service.h"

#include "runtime/consumer.h"
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

SessionOptions session_options_for(const MonitorOptions& options,
                                   unsigned num_threads) {
  SessionOptions session;
  session.num_threads = num_threads;
  session.perform_checks = options.perform_checks;
  session.validate_reports = options.validate_reports;
  session.max_pending_per_branch = options.max_pending_per_branch;
  session.fault_hooks = options.fault_hooks;
  session.sampling = options.sampling;
  return session;
}

MonitorServiceOptions service_options_for(const MonitorOptions& options,
                                          unsigned num_shards) {
  MonitorServiceOptions service;
  service.num_shards = num_shards;
  service.queue_capacity = options.queue_capacity;
  service.backoff = options.backoff;
  service.watchdog = options.watchdog;
  return service;
}

namespace {

/// Retires a producer call. A slot's count has one writer, its program
/// thread, so the release is a plain store: no read-modify-write, which
/// would wait for the report just staged to leave the store buffer.
struct InFlightGuard {
  std::atomic<std::uint32_t>& count;
  explicit InFlightGuard(std::atomic<std::uint32_t>& count) : count(count) {
    count.fetch_add(1, std::memory_order_seq_cst);
  }
  ~InFlightGuard() {
    count.store(count.load(std::memory_order_relaxed) - 1,
                std::memory_order_release);
  }
};

}  // namespace

unsigned MonitorService::shard_of(const BranchReport& report) const {
  // Keyed by (ctx, static_id): a branch lives wholly in one shard.
  return static_cast<unsigned>(
      support::hash_combine(report.ctx_hash, report.static_id) %
      options_.num_shards);
}

void MonitorService::teardown(const std::shared_ptr<detail::Sink>& state) {
  detail::Sink& s = *state;
  if (!s.teardown()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.reset();
  }
  const MonitorStats stats = s.stats();
  telemetry::counter_add(telemetry::Counter::SessionsEvicted);
  telemetry::record_event(telemetry::EventKind::SessionEvicted,
                          telemetry::Phase::MonitorCheck, s.id,
                          stats.violations, stats.dropped_reports);
}

// ---------------------------------------------------------------------------
// Service lifecycle.
// ---------------------------------------------------------------------------

MonitorService::MonitorService(MonitorServiceOptions options)
    : options_(options) {
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
}

MonitorService::~MonitorService() { stop(); }

void MonitorService::start() {
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = true;
}

// Every caller returns with the live session detached: a caller that
// loses the race to tear it down waits for the winner.
void MonitorService::stop() {
  std::shared_ptr<detail::Sink> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stopping_ = true;
    live = live_;
  }
  if (live != nullptr) teardown(live);
}

MonitorService::Admission MonitorService::admit(
    const SessionOptions& options) {
  Admission result;
  std::shared_ptr<detail::Sink> state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_ || stopping_) {
      result.error = AdmitError::ServiceStopped;
    } else if (options.num_threads == 0 ||
               options.max_pending_per_branch == 0) {
      // A config that can never be valid outranks a busy service: the
      // caller should fix the request, not retry it.
      result.error = AdmitError::BadConfig;
    } else if (live_ != nullptr) {
      result.error = AdmitError::Busy;
    } else {
      // Started under the lock, so a racing stop() never tears down a
      // session whose consumers are not running yet.
      state = std::make_shared<detail::Sink>(next_session_id_++, options,
                                             options_);
      state->start();
      live_ = state;
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
                               std::shared_ptr<detail::Sink> state)
    : service_(service), state_(std::move(state)) {}

MonitorSession::~MonitorSession() { close(); }

// The producer calls hold the in-flight guard across the phase check, so
// close() (which may race them) never touches the staged runs under them;
// a call that arrives after the latch counts its report as a drop.
void MonitorSession::send(const BranchReport& report) {
  BW_INTERNAL_CHECK(report.thread < state_->options.num_threads,
                    "report from out-of-range thread");
  detail::ProducerSlot& slot = state_->producers[report.thread];
  InFlightGuard guard(slot.in_flight);
  if (state_->phase.load(std::memory_order_seq_cst) != detail::kActive) {
    slot.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  state_->send(report, service_->shard_of(report));
}

void MonitorSession::flush(std::uint32_t thread) {
  BW_INTERNAL_CHECK(thread < state_->options.num_threads,
                    "flush from out-of-range thread");
  InFlightGuard guard(state_->producers[thread].in_flight);
  if (state_->phase.load(std::memory_order_seq_cst) != detail::kActive) {
    return;  // teardown owns the staged runs from here on
  }
  state_->flush(thread);
}

bool MonitorSession::violation_detected() const {
  return state_->violation_detected();
}

MonitorHealth MonitorSession::health() const { return state_->health.get(); }

SamplingController* MonitorSession::sampler() {
  return state_->sampler.active() ? &state_->sampler : nullptr;
}

bool MonitorSession::quiesce() { return state_->quiesce(); }

bool MonitorSession::finalize_section() {
  return state_->finalize_section();
}

bool MonitorSession::reset_epoch() { return state_->reset_epoch(); }

void MonitorSession::close() { service_->teardown(state_); }

SessionId MonitorSession::id() const { return state_->id; }

unsigned MonitorSession::num_threads() const {
  return state_->options.num_threads;
}

const std::vector<Violation>& MonitorSession::violations() const {
  return state_->violations();
}

MonitorStats MonitorSession::stats() const { return state_->stats(); }

}  // namespace bw::runtime
