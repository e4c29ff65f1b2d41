// Monitor resilience benchmark: cost of the bounded-backoff send path vs
// the legacy unbounded spin, measured from the producer side.
//
// Three scenarios, each over the same per-thread report stream:
//   healthy   — consumer keeps up; backoff never engages. Measures the
//               bookkeeping overhead of the bounded policy (should be ~0).
//   slow      — consumer artificially delayed per report; the ring
//               backpressures. Unbounded producers block at memory speed
//               of the consumer; bounded producers pay their budget, then
//               drop and move on.
//   stalled   — consumer stops entirely. Only the bounded policy is run:
//               the unbounded legacy policy never returns here (that is
//               the failure mode this PR removes).
//
//   usage: bw_monitor_resilience [threads] [reports_per_thread]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_args.h"
#include "runtime/monitor.h"

namespace {

using namespace bw::runtime;
using Clock = std::chrono::steady_clock;

struct Outcome {
  double producer_ms = 0;  // wall-clock until every producer returned
  double total_ms = 0;     // including stop() / final drain
  std::uint64_t processed = 0;
  std::uint64_t dropped = 0;
  MonitorHealth health = MonitorHealth::Healthy;
};

Outcome run_scenario(unsigned threads, std::uint64_t per_thread,
                     const MonitorOptions& options) {
  Monitor monitor(threads, options);
  monitor.start();

  const auto t0 = Clock::now();
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < threads; ++t) {
    producers.emplace_back([&monitor, t, per_thread] {
      BranchReport r;
      r.thread = t;
      r.kind = ReportKind::Outcome;
      r.check = CheckCode::SharedOutcome;
      r.outcome = true;
      for (std::uint64_t i = 0; i < per_thread; ++i) {
        r.static_id = static_cast<std::uint32_t>(1 + i % 7);
        r.iter_hash = i;
        monitor.send(r);
      }
    });
  }
  for (auto& p : producers) p.join();
  const auto t1 = Clock::now();
  monitor.stop();
  const auto t2 = Clock::now();

  Outcome out;
  out.producer_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.total_ms = std::chrono::duration<double, std::milli>(t2 - t0).count();
  MonitorStats stats = monitor.stats();
  out.processed = stats.reports_processed;
  out.dropped = stats.dropped_reports;
  out.health = monitor.health();
  return out;
}

void print_row(const char* label, const Outcome& o, std::uint64_t total) {
  std::printf("  %-18s %9.2f ms producers, %9.2f ms total, "
              "%10llu processed, %9llu dropped (%5.1f%%), health=%s\n",
              label, o.producer_ms, o.total_ms,
              static_cast<unsigned long long>(o.processed),
              static_cast<unsigned long long>(o.dropped),
              total == 0 ? 0.0 : 100.0 * static_cast<double>(o.dropped) /
                                     static_cast<double>(total),
              to_string(o.health));
}

MonitorOptions base_options(bool bounded) {
  MonitorOptions options;
  options.perform_checks = false;  // isolate the queueing path
  options.queue_capacity = 1 << 10;
  options.backoff.bounded = bounded;
  options.backoff.spins = 64;
  options.backoff.yields = 1024;
  options.watchdog.stall_timeout_ns = 50'000'000;  // 50 ms
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads =
      argc > 1 ? static_cast<unsigned>(bw::support::count_arg_or_exit(
                     "bw_monitor_resilience", "thread count", argv[1], 1,
                     bw::bench::kMaxThreads))
               : 4;
  std::uint64_t per_thread =
      argc > 2 ? bw::support::count_arg_or_exit("bw_monitor_resilience",
                                                "reports per thread", argv[2],
                                                1, bw::bench::kMaxReports)
               : 50'000;
  const std::uint64_t total = threads * per_thread;

  std::printf("Monitor resilience bench: %u producer threads x %llu "
              "reports\n\n",
              threads, static_cast<unsigned long long>(per_thread));

  std::printf("healthy consumer (backoff never engages):\n");
  print_row("unbounded-spin", run_scenario(threads, per_thread,
                                           base_options(false)), total);
  print_row("bounded-backoff", run_scenario(threads, per_thread,
                                            base_options(true)), total);

  std::printf("\nslow consumer (2 us per report, ring backpressures):\n");
  {
    MonitorOptions slow = base_options(false);
    slow.fault_hooks.delay_ns_per_report = 2'000;
    print_row("unbounded-spin", run_scenario(threads, per_thread, slow),
              total);
    slow.backoff.bounded = true;
    print_row("bounded-backoff", run_scenario(threads, per_thread, slow),
              total);
  }

  std::printf("\nstalled consumer (unbounded-spin would never return "
              "here):\n");
  {
    MonitorOptions stalled = base_options(true);
    stalled.fault_hooks.stall_after_reports = 1'000;
    Outcome o = run_scenario(threads, per_thread, stalled);
    print_row("bounded-backoff", o, total);
    if (o.health == MonitorHealth::Healthy || o.dropped == 0) {
      std::printf("  !! expected a degraded/failed monitor with drops\n");
      return 1;
    }
  }

  std::printf("\nThe bounded policy's healthy-path cost is the delta of "
              "the first two rows;\nits payoff is that the last scenario "
              "terminates at all.\n");
  return 0;
}
