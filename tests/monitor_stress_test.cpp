// Concurrency stress for the sharded MonitorService, designed to run
// under ThreadSanitizer (reproduce.sh --tsan): N real producer threads x
// K checker shards with RANDOMIZED flush timing, under
// clean conditions and under the MonitorStall / ReportDrop fault hooks.
// The first group drives one session per service — the topology
// pipeline::execute() builds for monitor_shards >= 1 — and the last
// churns many sessions back to back through one service. Every scenario
// but RealViolationIsStillDetectedUnderConcurrency sends only consistent
// observations, so the invariant pinned throughout is
// false_alarms == 0 — no interleaving, stall, or drop may fabricate a
// violation — while producers must always terminate (bounded backoff) and
// health must degrade exactly like the legacy monitor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/monitor_service.h"
#include "support/prng.h"

namespace {

using namespace bw::runtime;

/// A consistent report: every thread derives the same outcome/value from
/// (branch, iteration), so a correct monitor never flags. When
/// `with_conditions` is set, every fourth branch is a PartialValue check
/// whose report carries condition data.
BranchReport consistent_report(std::uint32_t thread, std::uint32_t branch,
                               std::uint64_t iter,
                               bool with_conditions = true) {
  BranchReport r;
  r.thread = thread;
  r.static_id = 1 + branch;
  r.ctx_hash = 0xc0ffee00ULL + branch;
  r.iter_hash = iter;
  r.check = with_conditions && branch % 4 == 3 ? CheckCode::PartialValue
                                                : CheckCode::SharedOutcome;
  if (r.check == CheckCode::PartialValue) {
    r.value = branch * 1315423911ULL + iter;
  }
  r.outcome = ((branch ^ iter) & 1) != 0;
  return r;
}

/// Drive `threads` producers through `monitor`, each sending the same
/// consistent schedule of `branches x iters` reports in its own order,
/// flushing at randomized points (seeded per thread, so TSan sees many
/// distinct interleavings across runs of the suite).
void run_producers(BranchSink& monitor, unsigned threads,
                   std::uint32_t branches, std::uint64_t iters,
                   std::uint64_t seed, bool with_conditions = true) {
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    producers.emplace_back([&monitor, t, branches, iters, seed,
                            with_conditions] {
      bw::support::SplitMixRng rng(seed * 977 + t);
      for (std::uint64_t i = 0; i < iters; ++i) {
        for (std::uint32_t b = 0; b < branches; ++b) {
          monitor.send(consistent_report(t, b, i, with_conditions));
          if (rng.next_below(16) == 0) monitor.flush(t);
        }
      }
      monitor.flush(t);
    });
  }
  for (auto& p : producers) p.join();
}

/// A service hosting exactly one session. Members are destroyed in
/// reverse order, so the session handle never outlives its service.
struct OneSession {
  OneSession(unsigned threads, const MonitorServiceOptions& options,
             SessionOptions session_options = {})
      : service(options) {
    service.start();
    session_options.num_threads = threads;
    MonitorService::Admission admission = service.admit(session_options);
    EXPECT_EQ(admission.error, AdmitError::None);
    session = std::move(admission.session);
  }
  MonitorService service;
  std::unique_ptr<MonitorSession> session;
};

/// The service shape pipeline::execute() derives for monitor_shards >= 1
/// at the default MonitorOptions: rings of the Monitor's queue_capacity,
/// and sessions without a quota.
MonitorServiceOptions shard_options(unsigned shards) {
  MonitorServiceOptions options;
  options.num_shards = shards;
  options.queue_capacity = MonitorOptions{}.queue_capacity;
  return options;
}

TEST(MonitorServiceStress, CleanRunManyShardsRandomFlushNoFalseAlarms) {
  for (unsigned shards : {1u, 2u, 4u}) {
    OneSession one(4, shard_options(shards));
    MonitorSession& session = *one.session;
    run_producers(session, 4, /*branches=*/8, /*iters=*/500, shards);
    session.close();

    MonitorStats stats = session.stats();
    EXPECT_TRUE(session.violations().empty()) << "shards=" << shards;
    EXPECT_EQ(stats.violations, 0u);  // false_alarms == 0
    EXPECT_EQ(session.health(), MonitorHealth::Healthy);
    EXPECT_EQ(stats.dropped_reports, 0u);
    EXPECT_EQ(stats.reports_processed, 4u * 8u * 500u);
    // One report per thread per instance: all 8 branches (partial ones
    // included) complete every instance on the eager path.
    EXPECT_EQ(stats.instances_checked, 8u * 500u);
    EXPECT_EQ(stats.instances_skipped, 0u);
  }
}

TEST(MonitorServiceStress, ValidationOnCleanRunRejectsNothing) {
  SessionOptions session_options;
  session_options.validate_reports = true;
  OneSession one(4, shard_options(4), session_options);
  MonitorSession& session = *one.session;
  run_producers(session, 4, /*branches=*/6, /*iters=*/300, 99);
  session.close();
  MonitorStats stats = session.stats();
  EXPECT_TRUE(session.violations().empty());
  EXPECT_EQ(stats.reports_rejected, 0u);
  EXPECT_EQ(session.health(), MonitorHealth::Healthy);
}

// A single wedged shard degrades health exactly like the legacy single
// monitor — producers never deadlock, no false alarm appears — while
// sibling shards keep draining their own key ranges.
TEST(MonitorServiceStress, SingleStalledShardDegradesWithoutFalseAlarms) {
  MonitorServiceOptions options = shard_options(4);
  options.queue_capacity = 16;  // small rings so the stall bites
  options.backoff.spins = 8;
  options.backoff.yields = 32;
  options.watchdog.stall_timeout_ns = 10'000'000'000ULL;  // stay Degraded
  SessionOptions session_options;
  session_options.fault_hooks.stall_after_reports = 1;
  session_options.fault_hooks.shard_filter = 2;  // wedge shard 2 only
  OneSession one(4, options, session_options);
  MonitorSession& session = *one.session;
  run_producers(session, 4, /*branches=*/16, /*iters=*/400, 7,
                /*with_conditions=*/false);
  session.close();

  MonitorStats stats = session.stats();
  EXPECT_TRUE(session.violations().empty());  // false_alarms == 0
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_NE(session.health(), MonitorHealth::Healthy);
  EXPECT_GT(stats.dropped_reports, 0u);
  EXPECT_EQ(stats.hooks_fired, 1u);  // exactly one shard stalled
  // Siblings kept checking: far more reports were processed than the one
  // the wedged shard managed before stalling.
  EXPECT_GT(stats.reports_processed, 1u);
}

TEST(MonitorServiceStress, AllShardsStalledWatchdogTripsFailed) {
  MonitorServiceOptions options = shard_options(2);
  options.queue_capacity = 16;
  options.backoff.spins = 8;
  options.backoff.yields = 16;
  options.watchdog.stall_timeout_ns = 1'000'000;  // 1 ms
  SessionOptions session_options;
  session_options.fault_hooks.stall_after_reports = 1;
  OneSession one(2, options, session_options);
  MonitorSession& session = *one.session;
  bool failed = false;
  for (std::uint64_t i = 0; i < 1'000'000 && !failed; ++i) {
    session.send(consistent_report(0, 0, i));
    session.flush(0);
    failed = session.health() == MonitorHealth::Failed;
  }
  EXPECT_TRUE(failed);
  // Post-Failed sends are cheap counted no-ops, as on the legacy monitor.
  for (int i = 0; i < 100; ++i) {
    session.send(consistent_report(1, 1, static_cast<std::uint64_t>(i)));
  }
  session.close();
  MonitorStats stats = session.stats();
  EXPECT_EQ(session.health(), MonitorHealth::Failed);
  EXPECT_GE(stats.dropped_per_thread[1], 100u);
  EXPECT_TRUE(session.violations().empty());
}

TEST(MonitorServiceStress, ReportDropFaultDegradesWithoutFalseAlarms) {
  SessionOptions session_options;
  session_options.fault_hooks.drop_report_index = 5;  // each shard's 5th
  OneSession one(4, shard_options(2), session_options);
  MonitorSession& session = *one.session;
  run_producers(session, 4, /*branches=*/8, /*iters=*/200, 31,
                /*with_conditions=*/false);
  session.close();

  MonitorStats stats = session.stats();
  EXPECT_TRUE(session.violations().empty());  // false_alarms == 0
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(session.health(), MonitorHealth::Degraded);
  EXPECT_EQ(stats.hooks_fired, 2u);
  EXPECT_EQ(stats.dropped_reports, 2u);
  // Each dropped outcome leaves its instance one observation short: the
  // degraded monitor must skip it as unverifiable, never guess.
  EXPECT_GE(stats.instances_skipped, 1u);
}

TEST(MonitorServiceStress, CloseFlushesResidualOpenBatches) {
  // Send fewer reports than one stride and never flush explicitly: close()
  // must publish the staged runs before detaching the shards, so no report
  // is stranded producer-side.
  OneSession one(2, shard_options(2));
  MonitorSession& session = *one.session;
  for (unsigned t = 0; t < 2; ++t) {
    for (std::uint32_t b = 0; b < 4; ++b) {
      session.send(consistent_report(t, b, 0, /*with_conditions=*/false));
    }
  }
  session.close();
  MonitorStats stats = session.stats();
  EXPECT_EQ(stats.reports_processed, 8u);
  EXPECT_EQ(stats.instances_checked, 4u);
  EXPECT_TRUE(session.violations().empty());
}

// A producer whose one-slot ring is full publishes its staged report and
// waits for the shard, which is deferring its next visit (delay hook),
// and close() publishes the last staged report before it broadcasts the
// detach, so a shard must keep draining a session that is tearing down.
// If either wait gave up early, or the shard skipped closing sessions, a
// report would be dropped.
TEST(MonitorServiceStress, CloseFlushIntoAFullRingWaitsForTheShard) {
  MonitorServiceOptions options = shard_options(1);
  options.queue_capacity = 1;
  options.backoff.yields = 1u << 22;  // far longer than the 20 ms deferral
  SessionOptions session_options;
  session_options.fault_hooks.delay_ns_per_report = 10'000'000;  // 10 ms
  OneSession one(1, options, session_options);
  MonitorSession& session = *one.session;
  auto send = [&](std::uint64_t iter) {
    session.send(consistent_report(0, 0, iter, /*with_conditions=*/false));
  };
  send(0);  // staged: fills the one-slot ring
  send(1);  // publishes 0 and waits; draining it defers the shard's visit
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  send(2);  // publishes 1 into the deferred shard's ring and waits
  send(3);
  send(4);  // left staged for close() to publish
  session.close();
  MonitorStats stats = session.stats();
  EXPECT_EQ(stats.dropped_reports, 0u);
  EXPECT_EQ(stats.reports_processed, 5u);
  EXPECT_EQ(session.health(), MonitorHealth::Healthy);
}

// Regression for the stop-vs-flush race: teardown used to assume
// producers had quiesced, so a concurrent flush could touch the staged
// runs it was publishing. Now close() latches the session, Dekker-waits
// for in-flight producer calls, and only then flushes residues; producer
// calls arriving after the latch become counted drops. Producers here
// keep sending/flushing THROUGH the close with no handshake at all; every
// report must end up processed or counted dropped, never lost or raced.
TEST(MonitorServiceStress, CloseWhileProducersStillFlushing) {
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kReports = 20'000;
  OneSession one(kThreads, shard_options(2));
  MonitorSession& session = *one.session;

  std::atomic<std::uint32_t> started{0};
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < kThreads; ++t) {
    producers.emplace_back([&session, &started, t] {
      bw::support::SplitMixRng rng(t * 31 + 5);
      started.fetch_add(1);
      for (std::uint64_t i = 0; i < kReports; ++i) {
        session.send(
            consistent_report(t, static_cast<std::uint32_t>(i % 8), i,
                              /*with_conditions=*/false));
        if (rng.next_below(32) == 0) session.flush(t);
      }
      session.flush(t);
    });
  }
  while (started.load() != kThreads) std::this_thread::yield();
  session.close();  // races against the active senders by design
  for (auto& p : producers) p.join();

  MonitorStats stats = session.stats();
  EXPECT_TRUE(session.violations().empty());  // false_alarms == 0
  EXPECT_EQ(stats.violations, 0u);
  // Conservation: every sent report was either processed or counted as a
  // drop somewhere — nothing vanished in the race window.
  EXPECT_EQ(stats.reports_processed + stats.dropped_reports,
            kThreads * kReports);
}

TEST(MonitorServiceStress, RealViolationIsStillDetectedUnderConcurrency) {
  // Not a false-alarm case: thread 2 genuinely deviates on one instance.
  // Detection must survive sharding, staged runs, and concurrent producers.
  OneSession one(4, shard_options(4));
  MonitorSession& session = *one.session;
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < 4; ++t) {
    producers.emplace_back([&session, t] {
      for (std::uint64_t i = 0; i < 300; ++i) {
        for (std::uint32_t b = 0; b < 4; ++b) {
          BranchReport r =
              consistent_report(t, b, i, /*with_conditions=*/false);
          if (b == 1 && i == 137 && t == 2) r.outcome = !r.outcome;
          session.send(r);
        }
      }
      session.flush(t);
    });
  }
  for (auto& p : producers) p.join();
  session.close();
  ASSERT_EQ(session.violations().size(), 1u);
  EXPECT_EQ(session.violations()[0].suspect_thread, 2u);
  EXPECT_EQ(session.violations()[0].static_id, 2u);  // branch b=1
  EXPECT_TRUE(session.violation_detected());
}

// ---------------------------------------------------------------------------
// Session churn (same TSan lane).
// ---------------------------------------------------------------------------

// Back-to-back session churn: admit -> stream from real producer threads
// -> close, 60 times against one service, so every session spawns and
// joins its own consumer threads while its producers still race the
// close. Invariant: zero false alarms and full report conservation on
// every churned session.
TEST(MonitorServiceStress, SessionChurnUnderLoadNoFalseAlarms) {
  MonitorServiceOptions options;
  options.num_shards = 2;
  MonitorService service(options);
  service.start();

  constexpr unsigned kSessions = 60;
  constexpr std::uint32_t kBranches = 4;
  constexpr std::uint64_t kIters = 40;
  for (unsigned round = 0; round < kSessions; ++round) {
    SessionOptions sopts;
    sopts.num_threads = 2;
    MonitorService::Admission a = service.admit(sopts);
    ASSERT_EQ(a.error, AdmitError::None) << "session " << round;
    run_producers(*a.session, 2, kBranches, kIters, round,
                  /*with_conditions=*/false);
    a.session->close();
    const MonitorStats stats = a.session->stats();
    EXPECT_EQ(stats.violations, 0u) << "session " << round;
    EXPECT_EQ(stats.reports_processed + stats.dropped_reports,
              2ull * kBranches * kIters)
        << "session " << round;
  }
  service.stop();
}

}  // namespace
