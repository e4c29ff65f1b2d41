#include "runtime/monitor.h"

#include "runtime/consumer.h"
#include "support/diagnostics.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

Monitor::Monitor(unsigned num_threads, MonitorOptions options)
    : num_threads_(num_threads),
      options_(options),
      rings_(num_threads, /*consumers=*/1, options_.queue_capacity),
      producers_(num_threads),
      core_(std::make_unique<TenantCore>(
          SinkCells{health_, sampler_, violation_count_}, num_threads,
          options_, /*hooks_apply=*/true)),
      mailbox_(std::make_unique<Mailbox>(/*consumers=*/1)),
      sampler_(options.sampling) {}

Monitor::~Monitor() { stop(); }

void Monitor::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { run(); });
}

void Monitor::stop() {
  if (!started_.load()) return;
  // Producers have stopped by contract, so the detach the monitor thread
  // executes last drains every report sent.
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    mailbox_->post(Command::Detach);
  }
  if (thread_.joinable()) thread_.join();
}

void Monitor::send(const BranchReport& report) {
  BW_INTERNAL_CHECK(report.thread < num_threads_,
                    "report from out-of-range thread");
  ProducerSlot& slot = producers_[report.thread];
  if (health_.get() == MonitorHealth::Failed) {
    // Monitoring abandoned: count the loss, let the program run on.
    slot.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (sampler_.active() &&
      !sampler_.should_check(report.ctx_hash, report.static_id,
                             report.iter_hash)) {
    return;  // instance deterministically sampled out on every thread
  }
  telemetry::counter_add(telemetry::Counter::ReportsSent);
  SpscQueue<BranchReport>& queue = rings_.at(report.thread, 0);
  BranchReport sealed;
  const BranchReport* payload = &report;
  if (options_.validate_reports) {
    sealed = report;
    seal_report(sealed);
    payload = &sealed;
  }
  auto try_push = [&] { return queue.try_push(*payload); };
  if (try_push()) return;
  push_or_give_up(try_push, SinkCells{health_, sampler_, violation_count_},
                  options_.backoff, options_.watchdog, report.thread,
                  /*shard=*/0, /*reports=*/1, slot.dropped, slot.stall,
                  mailbox_->cells[0].beat);
}

void Monitor::run() {
  // One span for the monitor thread's whole drain-and-check lifetime: in a
  // trace it sits on its own tid row, bracketing every violation event.
  telemetry::SpanScope span(telemetry::Phase::MonitorCheck, "monitor.drain");
  // A bounded burst per ring keeps the round-robin fair.
  Tenant tenant(*core_, *mailbox_, /*consumer=*/0, rings_, /*burst=*/256,
                [](std::uint32_t) {});
  while (!tenant.detached()) {
    if (!tenant.visit()) std::this_thread::yield();
  }
}

bool Monitor::quiesce() {
  if (!started_.load(std::memory_order_acquire)) return true;
  return running() &&
         quiesce_sink(rings_, *mailbox_, options_.watchdog, health_);
}

bool Monitor::finalize_section() {
  return running() && post_and_wait(*mailbox_, Command::Finalize,
                                    options_.watchdog, health_);
}

bool Monitor::reset_epoch() {
  if (!running() ||
      !post_and_wait(*mailbox_, Command::Reset, options_.watchdog, health_)) {
    return false;
  }
  violation_count_.store(0, std::memory_order_release);
  return true;
}

const std::vector<Violation>& Monitor::violations() const {
  return core_->table.violations();
}

MonitorStats Monitor::stats() const {
  MonitorStats merged;
  core_->fold(merged);
  merged.violations = core_->table.violations().size();
  fold_producer_stats(merged, sampler_, producers_);
  return merged;
}

}  // namespace bw::runtime
