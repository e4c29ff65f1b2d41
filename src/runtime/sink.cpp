#include "runtime/consumer.h"

namespace bw::runtime::detail {

Sink::Sink(SessionId id_, const SessionOptions& opts,
           const MonitorServiceOptions& shape)
    : id(id_),
      options(opts),
      backoff(shape.backoff),
      watchdog(shape.watchdog),
      quota(opts.report_quota),
      publish_at(quota == 0 || quota >= SpscQueue<BranchReport>::kStride
                     ? SpscQueue<BranchReport>::kStride
                     : static_cast<std::size_t>(quota)),
      producers(opts.num_threads),
      rings(opts.num_threads, shape.num_shards, shape.queue_capacity),
      mailbox(shape.num_shards),
      sampler(opts.sampling) {
  for (ProducerSlot& slot : producers) slot.stall.resize(shape.num_shards);
  for (unsigned k = 0; k < shape.num_shards; ++k) {
    cores_.push_back(std::make_unique<TenantCore>(*this, k));
    tenants_.push_back(std::make_unique<Tenant>(*this, *cores_.back(), k));
  }
}

Sink::~Sink() = default;

bool Sink::visit(unsigned consumer) { return tenants_[consumer]->visit(); }

bool Sink::detached(unsigned consumer) const {
  return tenants_[consumer]->detached();
}

/// The quota gate for a run bound to `consumer`: claim (CAS), then the
/// backoff ladder, which here also stops once the sink leaves kActive,
/// repeated (as on a full ring) while the consumers released reports
/// within the give-up grace. A gate already seen stuck — released_reports
/// frozen past the grace, and the consumer's beat standing still as long —
/// gives up at once instead of re-running a ladder that cannot succeed,
/// and a beat frozen for the watchdog deadline fails the sink as the ring
/// path does. A refused run is counted as throttled: the final rungs
/// sample down and degrade.
bool Sink::claim_quota(std::uint32_t thread, unsigned consumer,
                       std::uint32_t count) {
  ProducerSlot& slot = producers[thread];
  auto try_claim = [&]() -> bool {
    std::uint64_t cur = queued_reports.load(std::memory_order_relaxed);
    while (cur + count <= quota) {
      if (queued_reports.compare_exchange_weak(cur, cur + count,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
        const std::uint64_t now_queued = cur + count;
        std::uint64_t peak = quota_peak.load(std::memory_order_relaxed);
        while (now_queued > peak &&
               !quota_peak.compare_exchange_weak(peak, now_queued,
                                                 std::memory_order_relaxed)) {
        }
        slot.throttling = false;
        return true;
      }
    }
    return false;
  };
  if (try_claim()) return true;
  auto stop = [&] {
    return health.get() == MonitorHealth::Failed ||
           phase.load(std::memory_order_acquire) != kActive;
  };
  const std::uint64_t grace = give_up_grace_ns(watchdog);
  auto released = [&] {
    return released_reports.load(std::memory_order_relaxed);
  };
  auto beat = [&] {
    return mailbox.cells[consumer].beat.load(std::memory_order_relaxed);
  };
  auto give_up = [&] {
    if (slot.stall[consumer].expired(beat(), watchdog)) {
      raise(MonitorHealth::Failed);
    }
    reports_throttled.fetch_add(count, std::memory_order_relaxed);
    if (!slot.throttling) {
      slot.throttling = true;
      throttle_events.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter_add(telemetry::Counter::TenantThrottleEvents);
    }
    telemetry::counter_add(telemetry::Counter::ReportsThrottled, count);
    telemetry::record_event(telemetry::EventKind::TenantThrottled,
                            telemetry::Phase::MonitorCheck, id, thread,
                            count);
    sampler.note_pressure();
    raise(MonitorHealth::Degraded);
    return false;
  };
  // Both clocks are read on every refused claim, so they start together.
  const bool released_frozen = slot.quota_stall.frozen_for(released(), grace);
  const bool beat_frozen = slot.stall[consumer].frozen_for(beat(), grace);
  if (released_frozen && beat_frozen) return give_up();
  while (!run_backoff(backoff, try_claim, stop)) {
    if (stop() || slot.quota_stall.frozen_for(released(), grace)) {
      return give_up();
    }
  }
  return true;
}

bool Sink::post_and_wait(Command command) {
  if (health.get() == MonitorHealth::Failed) return false;
  const std::uint64_t seq = mailbox.post(command);
  if (bounded_wait([&] { return mailbox.all_acked(seq); }, watchdog,
                   &health)) {
    return true;
  }
  mailbox.post(Command::None);
  return false;
}

// Every ring empty, then every consumer's beat advanced twice, so any
// report popped before the rings emptied has been filed and checked. A
// frozen consumer never beats: its sink runs out the deadline.
bool Sink::quiesce() {
  if (phase.load(std::memory_order_acquire) != kActive) return false;
  publish();
  std::vector<std::uint64_t> empty_beats;
  return bounded_wait(
      [&] {
        if (!rings.empty()) {
          empty_beats.clear();
          return false;
        }
        if (empty_beats.empty()) {
          for (const Mailbox::Cell& cell : mailbox.cells) {
            empty_beats.push_back(cell.beat.load(std::memory_order_acquire));
          }
          return false;
        }
        for (std::size_t k = 0; k < mailbox.cells.size(); ++k) {
          if (mailbox.cells[k].beat.load(std::memory_order_acquire) <
              empty_beats[k] + 2) {
            return false;
          }
        }
        return true;
      },
      watchdog, &health);
}

bool Sink::finalize_section() {
  if (phase.load(std::memory_order_acquire) != kActive) return false;
  publish();
  return post_and_wait(Command::Finalize);
}

bool Sink::reset_epoch() {
  if (phase.load(std::memory_order_acquire) != kActive ||
      !post_and_wait(Command::Reset)) {
    return false;
  }
  // The consumers discarded the published reports and their tables; now
  // take back the runs the producers staged, counted as rolled back on
  // their consumer. Safe: every consumer acked the reset, so none writes
  // its core's counters until the next command.
  for (std::uint32_t t = 0; t < options.num_threads; ++t) {
    for (unsigned k = 0; k < cores_.size(); ++k) {
      SpscQueue<BranchReport>& ring = rings.at(t, k);
      cores_[k]->reports_rolled_back += ring.staged();
      ring.discard_staged();
    }
  }
  violation_count.store(0, std::memory_order_release);
  return true;
}

bool Sink::teardown() {
  int expected = kActive;
  if (!phase.compare_exchange_strong(expected, kDraining,
                                     std::memory_order_seq_cst)) {
    // A concurrent teardown won the race; wait for it to finish so
    // stats()/violations() are valid on return.
    while (phase.load(std::memory_order_acquire) != kDetached) {
      std::this_thread::yield();
    }
    return false;
  }
  // Dekker wait, paired with the seq_cst in_flight bump of a session's
  // producer calls: once this clears, no producer call will touch the
  // staged runs again.
  for (ProducerSlot& slot : producers) {
    while (slot.in_flight.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
  publish();
  // Broadcast the detach; every consumer drains its rings (a frozen
  // tenant's as drops), finalizes its table and acks. The wait ignores
  // health: a Failed sink still detaches.
  const std::uint64_t seq = mailbox.post(Command::Detach);
  if (!bounded_wait([&] { return mailbox.all_acked(seq); }, watchdog,
                    /*health=*/nullptr)) {
    // A consumer thread is truly wedged (stalls never wedge it). Merge
    // only the acked cores; the sink is Failed.
    health.raise(MonitorHealth::Failed);
  }
  merge(seq);
  phase.store(kDetached, std::memory_order_release);
  return true;
}

void Sink::merge(std::uint64_t seq) {
  MonitorStats m;
  final_violations_.clear();
  for (unsigned k = 0; k < cores_.size(); ++k) {
    if (!mailbox.acked(k, seq)) continue;
    const TenantCore& core = *cores_[k];
    final_violations_.insert(final_violations_.end(),
                             core.table.violations().begin(),
                             core.table.violations().end());
    core.fold(m);
    cores_[k].reset();
  }
  m.violations = final_violations_.size();
  m.reports_throttled = reports_throttled.load(std::memory_order_relaxed);
  m.throttle_events = throttle_events.load(std::memory_order_relaxed);
  m.quota_peak = quota_peak.load(std::memory_order_relaxed);
  fold_producers(m);
  final_stats_ = std::move(m);
}

void Sink::fold_producers(MonitorStats& m) const {
  m.dropped_per_thread.resize(producers.size(), 0);
  for (std::size_t t = 0; t < producers.size(); ++t) {
    const std::uint64_t dropped =
        producers[t].dropped.load(std::memory_order_relaxed);
    m.dropped_reports += dropped - m.dropped_per_thread[t];
    m.dropped_per_thread[t] = dropped;
  }
  const SamplingStats sampling = sampler.stats();
  m.reports_sampled_out = sampling.sampled_out;
  m.sampling_degrades = sampling.degrades;
  m.sampling_snap_backs = sampling.snap_backs;
  m.sampling_rate_final = sampling.final_rate;
  m.sampling_rate_peak = sampling.peak_rate;
}

MonitorStats Sink::stats() const {
  MonitorStats m = final_stats_;
  fold_producers(m);
  return m;
}

}  // namespace bw::runtime::detail
