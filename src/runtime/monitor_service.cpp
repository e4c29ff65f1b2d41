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

// ---------------------------------------------------------------------------
// Shard side: one thread per shard, visiting the live session.
// ---------------------------------------------------------------------------

struct MonitorService::Shard {
  unsigned index = 0;
  std::thread worker;
  SessionId session_id = 0;
  std::shared_ptr<detail::Sink> session;
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
    if (shard.session != nullptr && !shard.session->detached(shard.index)) {
      popped = shard.session->visit(shard.index);
    }
    if (!popped) {
      if (shards_exit_.load(std::memory_order_acquire)) break;
      std::this_thread::yield();
    }
  }
}

unsigned MonitorService::shard_of(const BranchReport& report) const {
  // Keyed by (ctx, static_id): a branch lives wholly in one shard.
  return static_cast<unsigned>(
      support::hash_combine(report.ctx_hash, report.static_id) % num_shards_);
}

void MonitorService::teardown(const std::shared_ptr<detail::Sink>& state) {
  detail::Sink& s = *state;
  if (!s.teardown()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live_.reset();
    live_id_.store(0, std::memory_order_release);
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
  std::shared_ptr<detail::Sink> live;
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
  std::shared_ptr<detail::Sink> state;
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
      state = std::make_shared<detail::Sink>(next_session_id_++, options,
                                             options_);
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
