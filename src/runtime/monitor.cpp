#include "runtime/monitor.h"

#include "runtime/consumer.h"
#include "support/telemetry/telemetry.h"

namespace bw::runtime {

Monitor::Monitor(unsigned num_threads, MonitorOptions options)
    : sink_(std::make_unique<detail::Sink>(
          /*id=*/0, session_options_for(options, num_threads),
          service_options_for(options, /*num_shards=*/1))) {}

Monitor::~Monitor() { stop(); }

void Monitor::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] {
    // One span for the monitor thread's whole drain-and-check lifetime: in
    // a trace it sits on its own tid row, bracketing every violation event.
    telemetry::SpanScope span(telemetry::Phase::MonitorCheck,
                              "monitor.drain");
    while (!sink_->detached(0)) {
      if (!sink_->visit(0)) std::this_thread::yield();
    }
  });
}

void Monitor::stop() {
  if (!started_.load()) return;
  sink_->teardown();
  if (thread_.joinable()) thread_.join();
}

void Monitor::send(const BranchReport& report) { sink_->send(report, 0); }

void Monitor::flush(std::uint32_t thread) { sink_->flush(thread); }

bool Monitor::violation_detected() const {
  return sink_->violation_detected();
}

std::uint64_t Monitor::violation_count() const {
  return sink_->violation_count.load(std::memory_order_acquire);
}

MonitorHealth Monitor::health() const { return sink_->health.get(); }

SamplingController* Monitor::sampler() {
  return sink_->sampler.active() ? &sink_->sampler : nullptr;
}

// Without the monitor thread nothing was sent: quiesce is trivially true,
// and a command would never be acked.
bool Monitor::quiesce() {
  return !started_.load(std::memory_order_acquire) || sink_->quiesce();
}

bool Monitor::finalize_section() {
  return started_.load(std::memory_order_acquire) &&
         sink_->finalize_section();
}

bool Monitor::reset_epoch() {
  return started_.load(std::memory_order_acquire) && sink_->reset_epoch();
}

const std::vector<Violation>& Monitor::violations() const {
  return sink_->violations();
}

MonitorStats Monitor::stats() const { return sink_->stats(); }

unsigned Monitor::num_threads() const { return sink_->options.num_threads; }

}  // namespace bw::runtime
