// The engine core shared by every campaign entry point (run_campaign,
// run_compositional_campaign, run_clean_campaign): one worker pool, one
// fault-run configuration, one application-fault verdict ladder, one
// telemetry record per injection, one checkpoint identity and one resume
// loader. Internal to src/fault/; the public surface is campaign.h,
// compositional.h and checkpoint.h.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/campaign.h"
#include "fault/checkpoint.h"
#include "support/telemetry/telemetry.h"

namespace bw::fault {

/// How a campaign steers run_pool beyond the task count.
struct PoolControl {
  /// Requested worker threads; 0 = hardware concurrency (min 1).
  unsigned workers = 0;
  /// Stop claiming tasks once `completed` reaches this (0 = never).
  int halt_after = 0;
  /// Work finished before the pool starts (resumed or cache-served
  /// outcomes). Counts toward halt_after.
  int completed = 0;
  /// When set, runs under the pool mutex after every `checkpoint_every`
  /// publishes (values below 1 mean every publish) and once more after
  /// the last worker has joined.
  std::function<void()> checkpoint{};
  int checkpoint_every = 1;
};

/// The worker pool every campaign runs on. Workers claim task indices
/// [0, tasks) from an atomic cursor and call `execute(task, worker)`
/// unlocked; the pool times that call and passes its result to
/// `publish(task, result, wall_ns, worker)` under one mutex. The worker
/// count is clamped to `tasks`, and one worker runs inline on the calling
/// thread (no thread spawned). halt_after is checked before the first
/// claim and after each publish, so work that already meets it executes
/// nothing. Returns the worker count used.
template <typename Execute, typename Publish>
unsigned run_pool(std::size_t tasks, const PoolControl& control,
                  Execute&& execute, Publish&& publish) {
  using Clock = std::chrono::steady_clock;
  const auto since = [](Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
  };
  const unsigned workers = static_cast<unsigned>(std::clamp<std::size_t>(
      control.workers != 0 ? control.workers
                           : std::max(1u, std::thread::hardware_concurrency()),
      1, std::max<std::size_t>(tasks, 1)));

  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  int completed = control.completed;
  int since_checkpoint = 0;
  std::uint64_t busy_ns = 0;  // summed across workers (utilization gauge)
  const auto halt_reached = [&] {
    return control.halt_after > 0 && completed >= control.halt_after;
  };
  std::atomic<bool> halted{halt_reached()};

  const auto worker = [&](unsigned id) {
    std::uint64_t my_busy = 0;
    while (!halted.load(std::memory_order_relaxed)) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= tasks) break;
      const Clock::time_point start = Clock::now();
      auto result = execute(task, id);
      const std::uint64_t wall_ns = since(start);
      my_busy += wall_ns;

      std::lock_guard<std::mutex> lock(mutex);
      publish(task, std::move(result), wall_ns, id);
      ++completed;
      if (halt_reached()) halted.store(true, std::memory_order_relaxed);
      if (control.checkpoint &&
          ++since_checkpoint >= std::max(control.checkpoint_every, 1)) {
        control.checkpoint();
        since_checkpoint = 0;
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    busy_ns += my_busy;
  };

  telemetry::gauge_set(telemetry::Gauge::CampaignWorkers, workers);
  const Clock::time_point pool_start = Clock::now();
  if (workers == 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker, w);
    for (std::thread& t : pool) t.join();
  }
  const std::uint64_t pool_ns = since(pool_start);

  // All workers joined: single-threaded again from here.
  if (control.checkpoint) control.checkpoint();
  if (pool_ns > 0) {
    telemetry::gauge_set(
        telemetry::Gauge::CampaignWorkerUtilPct,
        std::min<std::uint64_t>(100, 100 * busy_ns / (pool_ns * workers)));
  }
  return workers;
}

/// The ExecutionConfig of one application-fault run, fault plan unset:
/// threads, tier, monitor (Full when protected), watchdog budget, the
/// campaign's sampling block and recovery options.
pipeline::ExecutionConfig fault_run_config(const CampaignOptions& options,
                                           std::uint64_t budget);

/// The verdict ladder for application faults, in the paper's precedence:
/// recovered (Sdc when the replay still diverged) -> detected -> crashed
/// -> hung -> `output` compared against `golden_output`.
Verdict classify_application_fault(const pipeline::ExecutionResult& run,
                                   bool protect, const std::string& output,
                                   const std::string& golden_output);

/// Record one classified injection in telemetry: FaultInjected, plus
/// FaultActivated and the per-verdict counter when it activated, plus a
/// FaultOutcome event (a0 = verdict, a1 = faulted thread — 0 for
/// monitor-path faults, which land on the consumer side — a2 = dynamic
/// target index).
void record_outcome(Verdict verdict, unsigned thread, std::uint64_t target);

/// An empty checkpoint carrying the identity of the campaign `options`
/// describes: the fields CampaignCheckpoint::matches() compares, so
/// checkpoint_identity(o).matches(o) holds for every `o`.
CampaignCheckpoint checkpoint_identity(const CampaignOptions& options);

/// The checkpoint named by options.resume_file, loaded and checked
/// against the campaign's identity; an empty checkpoint when no resume
/// file is set. Throws support::CompileError when the file does not load
/// or belongs to a different campaign.
CampaignCheckpoint resume_checkpoint(const CampaignOptions& options);

}  // namespace bw::fault
