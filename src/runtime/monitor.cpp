#include "runtime/monitor.h"

#include "runtime/consumer.h"

namespace bw::runtime {

Monitor::Monitor(unsigned num_threads, MonitorOptions options)
    : sink_(std::make_unique<detail::Sink>(
          /*id=*/0, session_options_for(options, num_threads),
          service_options_for(options, /*num_shards=*/1))) {}

Monitor::~Monitor() = default;  // the sink tears itself down

void Monitor::start() { sink_->start(); }

void Monitor::stop() { sink_->teardown(); }

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

bool Monitor::quiesce() { return sink_->quiesce(); }

bool Monitor::finalize_section() { return sink_->finalize_section(); }

bool Monitor::reset_epoch() { return sink_->reset_epoch(); }

const std::vector<Violation>& Monitor::violations() const {
  return sink_->violations();
}

MonitorStats Monitor::stats() const { return sink_->stats(); }

unsigned Monitor::num_threads() const { return sink_->options.num_threads; }

}  // namespace bw::runtime
