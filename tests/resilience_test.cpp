// Monitor resilience tests: bounded backoff with drop accounting, the
// sticky Healthy -> Degraded -> Failed health machine, the heartbeat
// watchdog, degraded-mode unverifiable-instance skipping, checksum
// rejection of corrupted reports, and end-to-end liveness of a protected
// program whose monitor thread is artificially stalled. The SharedResilience
// cases run the one policy of resilience.h on both backends: the legacy
// Monitor and a one-session MonitorService.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <ostream>
#include <thread>
#include <vector>

#include "pipeline/pipeline.h"
#include "runtime/monitor.h"
#include "runtime/monitor_service.h"

namespace {

using namespace bw::runtime;

BranchReport report(std::uint32_t thread, std::uint32_t static_id,
                    CheckCode check, bool outcome,
                    std::uint64_t iter_hash = 0) {
  BranchReport r;
  r.thread = thread;
  r.static_id = static_id;
  r.check = check;
  r.kind = ReportKind::Outcome;
  r.outcome = outcome;
  r.iter_hash = iter_hash;
  return r;
}

/// Options that make a stalled consumer bite quickly: a tiny ring and a
/// small backoff budget.
MonitorOptions tight_options() {
  MonitorOptions options;
  options.queue_capacity = 32;
  options.backoff.spins = 8;
  options.backoff.yields = 32;
  // Generous deadline so tests exercise Degraded without tripping Failed
  // unless they mean to.
  options.watchdog.stall_timeout_ns = 10'000'000'000ULL;
  return options;
}

bool wait_for_health(const BranchSink& sink, MonitorHealth at_least,
                     int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms * 10; ++i) {
    if (static_cast<std::uint8_t>(sink.health()) >=
        static_cast<std::uint8_t>(at_least)) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return false;
}

enum class Backend { Monitor, Service };

std::ostream& operator<<(std::ostream& os, Backend backend) {
  return os << (backend == Backend::Monitor ? "Monitor" : "Service");
}

/// One scenario on either backend: the legacy Monitor, or the only
/// session of a one-shard MonitorService whose rings, backoff and watchdog
/// come from the same MonitorOptions: one ring shape on both. finish()
/// ends the run: stop() on the Monitor, close() on the session.
class Backed {
 public:
  Backed(Backend backend, unsigned num_threads,
         const MonitorOptions& options) {
    if (backend == Backend::Monitor) {
      monitor_ = std::make_unique<Monitor>(num_threads, options);
      monitor_->start();
      return;
    }
    MonitorServiceOptions service_options;
    service_options.num_shards = 1;
    service_options.queue_capacity = options.queue_capacity;
    service_options.backoff = options.backoff;
    service_options.watchdog = options.watchdog;
    service_ = std::make_unique<MonitorService>(service_options);
    service_->start();
    SessionOptions session_options;
    session_options.num_threads = num_threads;
    session_options.perform_checks = options.perform_checks;
    session_options.validate_reports = options.validate_reports;
    session_options.max_pending_per_branch = options.max_pending_per_branch;
    session_options.fault_hooks = options.fault_hooks;
    session_options.sampling = options.sampling;
    session_ = service_->admit(session_options).session;
    EXPECT_NE(session_, nullptr);
  }

  BranchSink& sink() {
    return monitor_ ? static_cast<BranchSink&>(*monitor_) : *session_;
  }
  void send(const BranchReport& r) { sink().send(r); }
  /// Publishes what `thread` sent (BranchSink::flush): a wait on the
  /// consumer must follow one.
  void flush(std::uint32_t thread) { sink().flush(thread); }
  MonitorHealth health() { return sink().health(); }
  void finish() {
    if (monitor_) {
      monitor_->stop();
    } else {
      session_->close();
    }
  }
  MonitorStats stats() const {
    return monitor_ ? monitor_->stats() : session_->stats();
  }
  const std::vector<Violation>& violations() const {
    return monitor_ ? monitor_->violations() : session_->violations();
  }

 private:
  std::unique_ptr<Monitor> monitor_;
  std::unique_ptr<MonitorService> service_;  // outlives session_
  std::unique_ptr<MonitorSession> session_;
};

class SharedResilience : public ::testing::TestWithParam<Backend> {};

INSTANTIATE_TEST_SUITE_P(Backends, SharedResilience,
                         ::testing::Values(Backend::Monitor,
                                           Backend::Service));

TEST(Resilience, HealthToStringCoversAllStates) {
  EXPECT_STREQ(to_string(MonitorHealth::Healthy), "healthy");
  EXPECT_STREQ(to_string(MonitorHealth::Degraded), "degraded");
  EXPECT_STREQ(to_string(MonitorHealth::Failed), "failed");
}

TEST(Resilience, HealthCellIsStickyAndMonotone) {
  HealthCell cell;
  EXPECT_EQ(cell.get(), MonitorHealth::Healthy);
  cell.raise(MonitorHealth::Degraded);
  EXPECT_EQ(cell.get(), MonitorHealth::Degraded);
  cell.raise(MonitorHealth::Healthy);  // downgrades are ignored
  EXPECT_EQ(cell.get(), MonitorHealth::Degraded);
  cell.raise(MonitorHealth::Failed);
  cell.raise(MonitorHealth::Degraded);
  EXPECT_EQ(cell.get(), MonitorHealth::Failed);
}

TEST(Resilience, CleanRunStaysHealthyWithNoDrops) {
  Monitor monitor(4);
  monitor.start();
  for (unsigned t = 0; t < 4; ++t) {
    monitor.send(report(t, 1, CheckCode::SharedOutcome, true));
  }
  monitor.stop();
  EXPECT_EQ(monitor.health(), MonitorHealth::Healthy);
  MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.dropped_reports, 0u);
  EXPECT_EQ(stats.reports_rejected, 0u);
  EXPECT_EQ(stats.instances_skipped, 0u);
  EXPECT_EQ(stats.instances_checked, 1u);
  ASSERT_EQ(stats.dropped_per_thread.size(), 4u);
  for (std::uint64_t d : stats.dropped_per_thread) EXPECT_EQ(d, 0u);
}

// The headline guarantee: a stalled monitor must not deadlock producers.
// The seed implementation spun forever here.
TEST_P(SharedResilience, StalledMonitorProducerReturnsAndDropsAreCounted) {
  MonitorOptions options = tight_options();
  options.fault_hooks.stall_after_reports = 1;
  Backed run(GetParam(), 2, options);
  // 5000 reports against a 32-slot ring with a stalled consumer: without
  // the bounded backoff this loop would never terminate.
  for (std::uint64_t i = 0; i < 5'000; ++i) {
    run.send(report(0, 1, CheckCode::SharedOutcome, true, i));
  }
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_GT(stats.dropped_reports, 0u);
  EXPECT_GT(stats.dropped_per_thread[0], 0u);
  EXPECT_EQ(stats.dropped_per_thread[1], 0u);
  EXPECT_NE(run.health(), MonitorHealth::Healthy);
  EXPECT_TRUE(run.violations().empty());
  EXPECT_EQ(stats.hooks_fired, 1u);
}

// A live consumer that is merely behind must backpressure, not drop: the
// consumer beats on every visit, even one the delay hook defers, so a
// producer's spent ladder (a few dozen yields here, far shorter than the
// deferral) is not yet a give-up.
TEST_P(SharedResilience, SlowLiveShardBackpressuresWithoutDrops) {
  MonitorOptions options = tight_options();
  options.fault_hooks.delay_ns_per_report = 200'000;
  Backed run(GetParam(), 1, options);
  for (std::uint64_t i = 0; i < 400; ++i) {
    run.send(report(0, 1, CheckCode::SharedOutcome, true, i));
  }
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.dropped_reports, 0u);
  EXPECT_EQ(stats.reports_processed, 400u);
  EXPECT_EQ(run.health(), MonitorHealth::Healthy);
  EXPECT_TRUE(run.violations().empty());
}

// The stall freezes the consumer: the report that fired it is filed,
// nothing after it is, and what is still queued at the end of the run is
// counted as dropped under degraded health, never filed late.
TEST_P(SharedResilience, StallFreezesAndFinishCountsTheRestAsDrops) {
  MonitorOptions options = tight_options();
  options.queue_capacity = 1024;  // the whole stream fits: no give-ups
  options.fault_hooks.stall_after_reports = 10;
  Backed run(GetParam(), 1, options);
  for (std::uint64_t i = 0; i < 100; ++i) {
    run.send(report(0, 1, CheckCode::SharedOutcome, true, i));
  }
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.reports_processed, 10u);
  EXPECT_EQ(stats.dropped_reports, 90u);
  EXPECT_EQ(run.health(), MonitorHealth::Degraded);
  EXPECT_TRUE(run.violations().empty());
  EXPECT_EQ(stats.hooks_fired, 1u);
}

TEST_P(SharedResilience, WatchdogTripsFailedAndSendsBecomeNoops) {
  MonitorOptions options = tight_options();
  options.fault_hooks.stall_after_reports = 1;
  options.watchdog.stall_timeout_ns = 1'000'000;  // 1 ms
  Backed run(GetParam(), 2, options);
  // Keep sending until repeated give-ups against a frozen heartbeat trip
  // the watchdog. Bounded: each send() returns after its backoff budget.
  bool failed = false;
  for (std::uint64_t i = 0; i < 1'000'000 && !failed; ++i) {
    run.send(report(0, 1, CheckCode::SharedOutcome, true, i));
    failed = run.health() == MonitorHealth::Failed;
  }
  EXPECT_TRUE(failed);
  // Post-Failed sends are counted, cheap no-ops: thread 1 queued nothing
  // before the failure, so every one of its sends lands in its drop
  // counter. (stats() itself is read only after finish() — the aggregate
  // counters are consumer-owned.)
  for (int i = 0; i < 100; ++i) {
    run.send(report(1, 2, CheckCode::SharedOutcome, true));
  }
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.dropped_per_thread[1], 100u);
  EXPECT_EQ(run.health(), MonitorHealth::Failed);
}

TEST_P(SharedResilience, WatchdogCanBeDisabled) {
  MonitorOptions options = tight_options();
  options.fault_hooks.stall_after_reports = 1;
  options.watchdog.enabled = false;
  Backed run(GetParam(), 1, options);
  for (std::uint64_t i = 0; i < 2'000; ++i) {
    run.send(report(0, 1, CheckCode::SharedOutcome, true, i));
  }
  // Without the watchdog the monitor degrades but never fails.
  EXPECT_EQ(run.health(), MonitorHealth::Degraded);
  run.finish();
}

TEST_P(SharedResilience, DegradedSkipsUnverifiableIncompleteInstances) {
  MonitorOptions options;
  options.fault_hooks.drop_report_index = 1;  // first popped report is lost
  Backed run(GetParam(), 4, options);
  run.send(report(0, 99, CheckCode::SharedOutcome, true));  // sacrificed
  run.flush(0);
  ASSERT_TRUE(wait_for_health(run.sink(), MonitorHealth::Degraded));
  // An incomplete, divergent instance: in a healthy monitor the finalize
  // path would flag this subset (see Monitor.FinalizeChecksIncomplete-
  // Instances); degraded, it is unverifiable — the divergence could be an
  // artifact of the lost report.
  run.send(report(0, 9, CheckCode::SharedOutcome, true));
  run.send(report(3, 9, CheckCode::SharedOutcome, false));
  run.finish();
  EXPECT_TRUE(run.violations().empty());
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.dropped_reports, 1u);
  EXPECT_GE(stats.instances_skipped, 1u);
  EXPECT_EQ(run.health(), MonitorHealth::Degraded);
  EXPECT_EQ(stats.hooks_fired, 1u);
}

TEST_P(SharedResilience, DegradedStillChecksCompleteInstances) {
  MonitorOptions options;
  options.fault_hooks.drop_report_index = 1;
  Backed run(GetParam(), 4, options);
  run.send(report(0, 99, CheckCode::SharedOutcome, true));  // sacrificed
  run.flush(0);
  ASSERT_TRUE(wait_for_health(run.sink(), MonitorHealth::Degraded));
  // All four threads report, one deviates: a complete instance carries no
  // ambiguity, so detection must still fire while degraded.
  for (unsigned t = 0; t < 4; ++t) {
    run.send(report(t, 5, CheckCode::SharedOutcome, t != 2));
  }
  run.finish();
  ASSERT_EQ(run.violations().size(), 1u);
  EXPECT_EQ(run.violations()[0].suspect_thread, 2u);
}

TEST_P(SharedResilience, ChecksumRejectsCorruptedReport) {
  MonitorOptions options;
  options.validate_reports = true;
  options.fault_hooks.corrupt_report_index = 2;
  options.fault_hooks.corrupt_bit = 3;  // lands in static_id
  Backed run(GetParam(), 2, options);
  run.send(report(0, 1, CheckCode::SharedOutcome, true));
  run.send(report(1, 1, CheckCode::SharedOutcome, true));
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.reports_rejected, 1u);
  EXPECT_EQ(stats.hooks_fired, 1u);
  EXPECT_TRUE(run.violations().empty());
  EXPECT_EQ(run.health(), MonitorHealth::Degraded);
}

TEST_P(SharedResilience, ChecksumCatchesOutcomeBitFlips) {
  // Flip the outcome byte of a queued report: without validation this
  // fabricates a divergence on a clean program; with it the report is
  // discarded and the instance becomes unverifiable instead.
  MonitorOptions options;
  options.validate_reports = true;
  options.fault_hooks.corrupt_report_index = 3;
  options.fault_hooks.corrupt_bit =
      static_cast<unsigned>(offsetof(BranchReport, outcome) * 8);
  Backed run(GetParam(), 4, options);
  for (unsigned t = 0; t < 4; ++t) {
    run.send(report(t, 1, CheckCode::SharedOutcome, true));
  }
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.reports_rejected, 1u);
  EXPECT_TRUE(run.violations().empty());
}

TEST_P(SharedResilience, ValidationPassesCleanReports) {
  MonitorOptions options;
  options.validate_reports = true;
  Backed run(GetParam(), 4, options);
  for (unsigned t = 0; t < 4; ++t) {
    run.send(report(t, 1, CheckCode::SharedOutcome, t != 0));
  }
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.reports_rejected, 0u);
  EXPECT_EQ(stats.instances_checked, 1u);
  EXPECT_EQ(run.health(), MonitorHealth::Healthy);
  // Validation must not mask real violations.
  ASSERT_EQ(run.violations().size(), 1u);
  EXPECT_EQ(run.violations()[0].suspect_thread, 0u);
}

TEST_P(SharedResilience, OutOfRangeThreadIdIsRejectedNotIndexed) {
  // Even without checksums, a thread id corrupted out of range must be
  // discarded rather than used as a table index.
  MonitorOptions options;
  options.fault_hooks.corrupt_report_index = 1;
  options.fault_hooks.corrupt_bit =
      static_cast<unsigned>(offsetof(BranchReport, thread) * 8 + 7);
  Backed run(GetParam(), 2, options);
  run.send(report(0, 1, CheckCode::SharedOutcome, true));
  run.send(report(1, 1, CheckCode::SharedOutcome, true));
  run.finish();
  MonitorStats stats = run.stats();
  EXPECT_EQ(stats.reports_rejected, 1u);
  EXPECT_TRUE(run.violations().empty());
}

// The recovery commands' bodies on both backends: finalize_section runs the
// end-of-section pass mid-run, and reset_epoch forgets violations and
// pending instances alike.
TEST_P(SharedResilience, FinalizeSectionFlagsIncompleteInstanceWithoutStopping) {
  Backed run(GetParam(), 4, MonitorOptions{});
  BranchSink& sink = run.sink();
  run.send(report(0, 9, CheckCode::SharedOutcome, true));
  run.send(report(3, 9, CheckCode::SharedOutcome, false));
  sink.flush(0);
  sink.flush(3);
  ASSERT_TRUE(sink.quiesce());
  // Two of four threads reported: only the finalize pass checks it.
  EXPECT_FALSE(sink.violation_detected());
  ASSERT_TRUE(sink.finalize_section());
  EXPECT_TRUE(sink.violation_detected());
  run.finish();
  EXPECT_EQ(run.violations().size(), 1u);
}

TEST_P(SharedResilience, ResetEpochForgetsViolationsAndPendingInstances) {
  Backed run(GetParam(), 4, MonitorOptions{});
  BranchSink& sink = run.sink();
  for (unsigned t = 0; t < 4; ++t) {
    run.send(report(t, 5, CheckCode::SharedOutcome, t != 2));
  }
  run.send(report(0, 7, CheckCode::SharedOutcome, true));
  run.send(report(1, 7, CheckCode::SharedOutcome, true));
  for (unsigned t = 0; t < 4; ++t) sink.flush(t);
  ASSERT_TRUE(sink.quiesce());
  EXPECT_TRUE(sink.violation_detected());
  ASSERT_TRUE(sink.reset_epoch());
  EXPECT_FALSE(sink.violation_detected());
  // The other half of instance 7 diverges from the discarded half only:
  // the run stays clean iff the pending half was rolled back.
  run.send(report(2, 7, CheckCode::SharedOutcome, false));
  run.send(report(3, 7, CheckCode::SharedOutcome, false));
  sink.flush(2);
  sink.flush(3);
  run.finish();
  EXPECT_TRUE(run.violations().empty());
  EXPECT_EQ(run.health(), MonitorHealth::Healthy);
}

TEST(Resilience, UnboundedLegacyPolicyStillDrainsNormally) {
  MonitorOptions options;
  options.backoff.bounded = false;  // the seed's spin-forever behaviour
  options.queue_capacity = 64;
  Monitor monitor(2, options);
  monitor.start();
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    monitor.send(report(0, 1, CheckCode::SharedOutcome, true, i));
    monitor.send(report(1, 1, CheckCode::SharedOutcome, true, i));
  }
  monitor.stop();
  MonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.dropped_reports, 0u);
  EXPECT_EQ(monitor.health(), MonitorHealth::Healthy);
  EXPECT_EQ(stats.reports_processed, 20'000u);
}

TEST(Resilience, ConcurrentProducersSurviveStalledMonitor) {
  MonitorOptions options = tight_options();
  options.fault_hooks.stall_after_reports = 1;
  options.watchdog.stall_timeout_ns = 2'000'000;  // 2 ms: let Failed trip
  Monitor monitor(4, options);
  monitor.start();
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < 4; ++t) {
    producers.emplace_back([&monitor, t] {
      for (std::uint64_t i = 0; i < 20'000; ++i) {
        monitor.send(report(t, 1 + i % 3, CheckCode::SharedOutcome, true, i));
      }
    });
  }
  for (auto& p : producers) p.join();  // must terminate
  monitor.stop();
  MonitorStats stats = monitor.stats();
  EXPECT_GT(stats.dropped_reports, 0u);
  EXPECT_NE(monitor.health(), MonitorHealth::Healthy);
  EXPECT_TRUE(monitor.violations().empty());
}

// --- End to end through the pipeline ----------------------------------------

constexpr const char* kLoopyKernel = R"BWC(
global int n = 4096;
global int data[4096];
global int sums[8];
func init() {
  for (int i = 0; i < n; i = i + 1) { data[i] = hashrand(i) % 100; }
}
func slave() {
  int p = nthreads();
  int id = tid();
  int s = 0;
  for (int i = id; i < n; i = i + p) {
    if (data[i] > 50) { s = s + data[i]; }
  }
  sums[id] = s;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + sums[t]; }
    print_i(total);
  }
}
)BWC";

// Acceptance scenario from the issue: monitor thread artificially stalled,
// the protected program still completes (no deadlock), health reports
// Degraded/Failed, and the drop count is nonzero.
TEST(Resilience, ProtectedProgramSurvivesStalledMonitorEndToEnd) {
  using namespace bw;
  pipeline::CompiledProgram program =
      pipeline::protect_program(kLoopyKernel);

  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  config.monitor = pipeline::MonitorMode::Full;
  config.monitor_options.queue_capacity = 32;
  config.monitor_options.backoff.spins = 16;
  config.monitor_options.backoff.yields = 64;
  config.monitor_options.watchdog.stall_timeout_ns = 2'000'000;  // 2 ms
  config.monitor_options.fault_hooks.stall_after_reports = 1;
  pipeline::ExecutionResult result = pipeline::execute(program, config);

  EXPECT_TRUE(result.run.ok);        // completed: no deadlock, no traps
  EXPECT_FALSE(result.run.hang);
  EXPECT_FALSE(result.detected);     // no false alarm from the stall
  EXPECT_NE(result.monitor_health, runtime::MonitorHealth::Healthy);
  EXPECT_GT(result.monitor_stats.dropped_reports, 0u);

  // Same program, healthy monitor: full protection, nothing dropped.
  pipeline::ExecutionConfig clean_config;
  clean_config.num_threads = 4;
  pipeline::ExecutionResult clean = pipeline::execute(program, clean_config);
  EXPECT_TRUE(clean.run.ok);
  EXPECT_FALSE(clean.detected);
  EXPECT_EQ(clean.monitor_health, runtime::MonitorHealth::Healthy);
  EXPECT_EQ(clean.monitor_stats.dropped_reports, 0u);
  EXPECT_EQ(clean.run.output, result.run.output);  // stall never corrupts
}

TEST(Resilience, ValidationModeEndToEndIsFalsePositiveFree) {
  using namespace bw;
  pipeline::CompiledProgram program =
      pipeline::protect_program(kLoopyKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  config.monitor_options.validate_reports = true;
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  EXPECT_TRUE(result.run.ok);
  EXPECT_FALSE(result.detected);
  EXPECT_EQ(result.monitor_stats.reports_rejected, 0u);
  EXPECT_EQ(result.monitor_health, runtime::MonitorHealth::Healthy);
}

}  // namespace
