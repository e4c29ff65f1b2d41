#include "traffic.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "runtime/branch_table.h"
#include "runtime/monitor.h"
#include "runtime/spsc_queue.h"
#include "support/prng.h"

namespace bwperf {

namespace {

using Clock = std::chrono::steady_clock;

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

/// The level-1 key of BranchTable: one (ctx, static_id) pair.
std::uint64_t branch_key(const BranchReport& report) {
  return bw::support::hash_combine(report.ctx_hash, report.static_id);
}

/// Starts `count` threads running body(index) at the same instant and
/// joins them; returns the seconds from that instant until every body
/// returned.
template <typename Body>
double run_together(unsigned count, Body body) {
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (unsigned i = 0; i < count; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) {
      }
      body(i);
    });
  }
  while (ready.load(std::memory_order_acquire) < count) {
    std::this_thread::yield();
  }
  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return ns_since(start) * 1e-9;
}

void replay_monitor(const Streams& streams, unsigned num_threads,
                    bool checks, ReplayTotals& totals) {
  bw::runtime::MonitorOptions options;
  options.perform_checks = checks;
  bw::runtime::Monitor monitor(num_threads, options);
  monitor.start();
  std::vector<double> busy_ns(num_threads, 0.0);
  const auto start = Clock::now();
  run_together(num_threads, [&](unsigned tid) {
    const auto begin = Clock::now();
    for (const BranchReport& report : streams[tid]) monitor.send(report);
    busy_ns[tid] = ns_since(begin);
  });
  monitor.stop();
  const double wall_s = ns_since(start) * 1e-9;

  totals.violations += monitor.violations().size();
  totals.dropped += monitor.stats().dropped_reports;
  if (checks) {
    totals.full_s += wall_s;
    for (unsigned tid = 0; tid < num_threads; ++tid) {
      totals.send_ns += busy_ns[tid];
      totals.sends += streams[tid].size();
    }
  } else {
    totals.drain_s += wall_s;
  }
}

void replay_queue(const std::vector<BranchReport>& order,
                  ReplayTotals& totals) {
  bw::runtime::SpscQueue<BranchReport> queue(
      bw::runtime::MonitorOptions{}.queue_capacity);
  double push_ns = 0.0;
  double pop_ns = 0.0;
  run_together(2, [&](unsigned role) {
    const auto begin = Clock::now();
    if (role == 0) {
      for (const BranchReport& report : order) {
        while (!queue.try_push(report)) {
        }
      }
      push_ns = ns_since(begin);
    } else {
      BranchReport report;
      for (std::size_t popped = 0; popped < order.size();) {
        if (queue.try_pop(report)) ++popped;
      }
      pop_ns = ns_since(begin);
    }
  });
  totals.push_ns += push_ns;
  totals.pop_ns += pop_ns;
  totals.transfers += order.size();
}

void replay_table(const std::vector<BranchReport>& order,
                  unsigned num_threads, ReplayTotals& totals) {
  bw::runtime::BranchTable table(
      num_threads, bw::runtime::MonitorOptions{}.max_pending_per_branch);
  auto start = Clock::now();
  for (const BranchReport& report : order) table.process(report, false);
  totals.process_ns += ns_since(start);
  totals.processed += order.size();
  start = Clock::now();
  table.finalize(false);
  totals.finalize_ms += ns_since(start) * 1e-6;
  ++totals.finalizes;
  totals.violations += table.violations().size();
}

void replay_checks(const std::vector<RecordedInstance>& instances,
                   ReplayTotals& totals) {
  std::array<std::vector<const RecordedInstance*>, kCheckCodes> by_code;
  for (const RecordedInstance& instance : instances) {
    by_code[static_cast<std::size_t>(instance.check)].push_back(&instance);
  }
  for (std::size_t code = 0; code < kCheckCodes; ++code) {
    const auto start = Clock::now();
    for (const RecordedInstance* instance : by_code[code]) {
      if (bw::runtime::check_instance(instance->check,
                                      instance->observations)) {
        ++totals.violations;
      }
    }
    totals.check_ns[code] += ns_since(start);
    totals.checks[code] += by_code[code].size();
  }
}

}  // namespace

RecordingSink::RecordingSink(bw::runtime::BranchSink& monitor,
                             unsigned num_threads)
    : monitor_(monitor), lanes_(num_threads) {}

void RecordingSink::send(const BranchReport& report) {
  lanes_[report.thread].reports.push_back(report);
  monitor_.send(report);
}

Streams RecordingSink::take_streams() {
  Streams streams;
  for (Lane& lane : lanes_) streams.push_back(std::move(lane.reports));
  return streams;
}

std::vector<BranchReport> interleave(const Streams& streams) {
  std::vector<BranchReport> order;
  std::size_t longest = 0;
  for (const auto& stream : streams) {
    longest = std::max(longest, stream.size());
  }
  for (std::size_t i = 0; i < longest; ++i) {
    for (const auto& stream : streams) {
      if (i < stream.size()) order.push_back(stream[i]);
    }
  }
  return order;
}

std::vector<RecordedInstance> rebuild_instances(
    const std::vector<BranchReport>& order, unsigned num_threads) {
  std::vector<RecordedInstance> closed;
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, RecordedInstance>>
      open;
  for (const BranchReport& report : order) {
    auto& instances = open[branch_key(report)];
    auto [it, inserted] = instances.try_emplace(report.iter_hash);
    RecordedInstance& instance = it->second;
    if (inserted) {
      instance.check = report.check;
      instance.observations.resize(num_threads);
      for (unsigned t = 0; t < num_threads; ++t) {
        instance.observations[t].thread = t;
      }
    }
    bw::runtime::ThreadObservation& obs =
        instance.observations[report.thread];
    if (report.kind == bw::runtime::ReportKind::Condition) {
      obs.has_value = true;
      obs.value = report.value;
      continue;
    }
    if (!obs.has_outcome) ++instance.reporters;
    obs.has_outcome = true;
    obs.outcome = report.outcome;
    if (instance.reporters == num_threads) {
      closed.push_back(std::move(instance));
      instances.erase(it);
    }
  }
  for (auto& [key, instances] : open) {
    for (auto& [iter, instance] : instances) {
      if (instance.reporters >= 2) closed.push_back(std::move(instance));
    }
  }
  return closed;
}

Census take_census(const Streams& streams,
                   const std::vector<RecordedInstance>& instances) {
  Census census;
  std::unordered_set<std::uint64_t> keys;
  for (const auto& stream : streams) {
    for (const BranchReport& report : stream) {
      ++census.reports;
      ++census.reports_by_code[static_cast<std::size_t>(report.check)];
      keys.insert(branch_key(report));
    }
  }
  census.keys = keys.size();
  census.instances = instances.size();
  for (const RecordedInstance& instance : instances) {
    census.reporters += instance.reporters;
  }
  return census;
}

void replay(const Streams& streams, const std::vector<BranchReport>& order,
            const std::vector<RecordedInstance>& instances,
            unsigned num_threads, ReplayTotals& totals) {
  replay_monitor(streams, num_threads, true, totals);
  replay_monitor(streams, num_threads, false, totals);
  replay_queue(order, totals);
  replay_table(order, num_threads, totals);
  replay_checks(instances, totals);
}

}  // namespace bwperf
