// Monitor tests: queue draining, the two-level instance table, eager and
// finalize-time checking, drain-only mode and eviction under pressure.
// The publish points of staged reports are SharedResilience cases
// (resilience_test.cpp), run on both backends.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "runtime/monitor.h"

namespace {

using namespace bw::runtime;

BranchReport report(std::uint32_t thread, std::uint32_t static_id,
                    CheckCode check, bool outcome,
                    std::uint64_t iter_hash = 0,
                    std::uint64_t ctx_hash = 0) {
  BranchReport r;
  r.thread = thread;
  r.static_id = static_id;
  r.check = check;
  r.kind = ReportKind::Outcome;
  r.outcome = outcome;
  r.iter_hash = iter_hash;
  r.ctx_hash = ctx_hash;
  return r;
}

TEST(Monitor, CleanInstanceProducesNoViolation) {
  Monitor monitor(4);
  monitor.start();
  for (unsigned t = 0; t < 4; ++t) {
    monitor.send(report(t, 1, CheckCode::SharedOutcome, true));
  }
  monitor.stop();
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_EQ(monitor.stats().reports_processed, 4u);
  EXPECT_EQ(monitor.stats().instances_checked, 1u);
}

TEST(Monitor, EagerCheckFiresOnceAllThreadsReport) {
  Monitor monitor(4);
  monitor.start();
  for (unsigned t = 0; t < 4; ++t) {
    monitor.send(report(t, 1, CheckCode::SharedOutcome, t != 2));
  }
  monitor.stop();
  ASSERT_EQ(monitor.violations().size(), 1u);
  const Violation& v = monitor.violations()[0];
  EXPECT_EQ(v.static_id, 1u);
  EXPECT_EQ(v.suspect_thread, 2u);
  EXPECT_TRUE(monitor.violation_detected());
  EXPECT_EQ(monitor.violation_count(), 1u);
}

TEST(Monitor, FinalizeChecksIncompleteInstances) {
  // Only 2 of 4 threads reach the branch (divergent control); the subset
  // is still checked at end of run.
  Monitor monitor(4);
  monitor.start();
  monitor.send(report(0, 9, CheckCode::SharedOutcome, true));
  monitor.send(report(3, 9, CheckCode::SharedOutcome, false));
  monitor.stop();
  ASSERT_EQ(monitor.violations().size(), 1u);
  EXPECT_EQ(monitor.violations()[0].static_id, 9u);
}

TEST(Monitor, SingleReporterIsNeverFlagged) {
  Monitor monitor(4);
  monitor.start();
  monitor.send(report(1, 5, CheckCode::SharedOutcome, true));
  monitor.stop();
  EXPECT_TRUE(monitor.violations().empty());
}

TEST(Monitor, InstancesAreKeyedByIterationAndContext) {
  Monitor monitor(2);
  monitor.start();
  // Same static branch, different loop iterations: distinct instances;
  // outcomes differ ACROSS iterations but agree within each -> clean.
  for (std::uint64_t iter = 0; iter < 10; ++iter) {
    monitor.send(report(0, 3, CheckCode::SharedOutcome, iter % 2 == 0, iter));
    monitor.send(report(1, 3, CheckCode::SharedOutcome, iter % 2 == 0, iter));
  }
  // Different call-site contexts keep instances apart too.
  monitor.send(report(0, 4, CheckCode::SharedOutcome, true, 0, 111));
  monitor.send(report(1, 4, CheckCode::SharedOutcome, true, 0, 111));
  monitor.send(report(0, 4, CheckCode::SharedOutcome, false, 0, 222));
  monitor.send(report(1, 4, CheckCode::SharedOutcome, false, 0, 222));
  monitor.stop();
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_EQ(monitor.stats().instances_checked, 12u);
}

TEST(Monitor, MixingIterationsWouldBeViolation) {
  // Sanity inverse of the previous test: same key, different outcomes.
  Monitor monitor(2);
  monitor.start();
  monitor.send(report(0, 3, CheckCode::SharedOutcome, true, 7));
  monitor.send(report(1, 3, CheckCode::SharedOutcome, false, 7));
  monitor.stop();
  EXPECT_EQ(monitor.violations().size(), 1u);
}

TEST(Monitor, PartialChecksReadTheValueOnOutcomeReports) {
  Monitor monitor(2);
  monitor.start();
  auto partial = [&](unsigned t, std::uint64_t value, bool outcome) {
    BranchReport r = report(t, 6, CheckCode::PartialValue, outcome);
    r.value = value;
    monitor.send(r);
  };
  // Same condition value, different outcomes: violation.
  partial(0, 42, true);
  partial(1, 42, false);
  monitor.stop();
  EXPECT_EQ(monitor.violations().size(), 1u);
}

TEST(Monitor, DrainOnlyModeChecksNothing) {
  MonitorOptions options;
  options.perform_checks = false;
  Monitor monitor(4, options);
  monitor.start();
  for (unsigned t = 0; t < 4; ++t) {
    monitor.send(report(t, 1, CheckCode::SharedOutcome, t == 0));
  }
  monitor.stop();
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_EQ(monitor.stats().instances_checked, 0u);
  EXPECT_EQ(monitor.stats().reports_processed, 4u);
}

TEST(Monitor, EvictionKeepsMemoryBoundedAndStaysSound) {
  MonitorOptions options;
  options.max_pending_per_branch = 64;
  Monitor monitor(4, options);
  monitor.start();
  // Thread 0 reports 10k instances no one else reaches.
  for (std::uint64_t iter = 0; iter < 10'000; ++iter) {
    monitor.send(report(0, 2, CheckCode::SharedOutcome, true, iter));
  }
  monitor.stop();
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_GT(monitor.stats().instances_evicted, 0u);
}

class MonitorTinyCap : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MonitorTinyCap, NeverEvictsTheInstanceBeingFiled) {
  // Caps 0 and 1 both keep exactly the newest instance of a branch: each
  // new instance evicts its predecessor, never itself. (One producer, so
  // the consumer sees the reports in send order.)
  MonitorOptions options;
  options.max_pending_per_branch = GetParam();
  Monitor monitor(2, options);
  monitor.start();
  for (std::uint64_t iter = 0; iter < 10; ++iter) {
    monitor.send(report(0, 2, CheckCode::SharedOutcome, true, iter));
  }
  monitor.stop();
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_EQ(monitor.stats().reports_processed, 10u);
  EXPECT_EQ(monitor.stats().instances_evicted, 9u);
  EXPECT_EQ(monitor.stats().instances_checked, 0u);
}

TEST_P(MonitorTinyCap, EvictedSubsetsAreStillChecked) {
  BranchTable table(3, GetParam());
  // Threads 0 and 1 disagree on iteration 0 (a subset violation, found
  // when iteration 1 evicts it); thread 0 alone reaches iterations 1-3.
  table.process(report(0, 2, CheckCode::SharedOutcome, true, 0), false);
  table.process(report(1, 2, CheckCode::SharedOutcome, false, 0), false);
  for (std::uint64_t iter = 1; iter <= 3; ++iter) {
    table.process(report(0, 2, CheckCode::SharedOutcome, true, iter), false);
  }
  // The survivor (iteration 3) completes and is checked eagerly.
  table.process(report(1, 2, CheckCode::SharedOutcome, true, 3), false);
  table.process(report(2, 2, CheckCode::SharedOutcome, true, 3), false);
  ASSERT_EQ(table.violations().size(), 1u);
  EXPECT_EQ(table.violations()[0].iter_hash, 0u);
  EXPECT_EQ(table.instances_evicted(), 3u);
  EXPECT_EQ(table.instances_checked(), 2u);
  EXPECT_FALSE(table.empty());
  table.finalize(false);
  EXPECT_TRUE(table.empty());
}

INSTANTIATE_TEST_SUITE_P(Caps, MonitorTinyCap, ::testing::Values(0u, 1u));

// BranchTable order is deterministic: finalize() visits branch keys in
// first-seen order and each key's instances in insertion order; eviction
// is FIFO per key.

BranchReport outcome(std::uint32_t thread, std::uint32_t static_id,
                     std::uint64_t iter, bool taken) {
  return report(thread, static_id, CheckCode::SharedOutcome, taken, iter);
}

/// Files a two-thread disagreement (a subset violation once checked).
void file_conflict(BranchTable& table, std::uint32_t static_id,
                   std::uint64_t iter) {
  table.process(outcome(0, static_id, iter, true), false);
  table.process(outcome(1, static_id, iter, false), false);
}

std::vector<std::pair<std::uint32_t, std::uint64_t>> order_of(
    const BranchTable& table) {
  std::vector<std::pair<std::uint32_t, std::uint64_t>> out;
  for (const Violation& v : table.violations()) {
    out.emplace_back(v.static_id, v.iter_hash);
  }
  return out;
}

TEST(BranchTableOrder, FinalizeVisitsKeysFirstSeenThenInsertionOrder) {
  BranchTable table(3, 1 << 15);
  file_conflict(table, 5, 30);
  file_conflict(table, 1, 2);
  file_conflict(table, 5, 10);
  file_conflict(table, 1, 1);
  file_conflict(table, 5, 20);
  table.finalize(false);
  using P = std::pair<std::uint32_t, std::uint64_t>;
  EXPECT_EQ(order_of(table),
            (std::vector<P>{{5, 30}, {5, 10}, {5, 20}, {1, 2}, {1, 1}}));
  EXPECT_TRUE(table.empty());
}

TEST(BranchTableOrder, EvictionIsFifoPerKey) {
  BranchTable table(3, 3);
  file_conflict(table, 7, 1);
  file_conflict(table, 7, 2);
  file_conflict(table, 7, 3);
  table.process(outcome(2, 7, 2, true), false);  // 2 completes mid-list
  file_conflict(table, 7, 4);  // pending {1, 3, 4}: within the cap
  EXPECT_EQ(table.instances_evicted(), 0u);
  file_conflict(table, 7, 5);  // evicts 1, the oldest
  file_conflict(table, 7, 6);  // evicts 3
  EXPECT_EQ(table.instances_evicted(), 2u);
  table.finalize(false);
  using P = std::pair<std::uint32_t, std::uint64_t>;
  EXPECT_EQ(order_of(table),
            (std::vector<P>{{7, 2}, {7, 1}, {7, 3}, {7, 4}, {7, 5}, {7, 6}}));
}

TEST(Monitor, ManyCleanInstancesUnderConcurrency) {
  // 4 producer threads hammer the monitor with consistent reports.
  Monitor monitor(4);
  monitor.start();
  std::vector<std::thread> producers;
  for (unsigned t = 0; t < 4; ++t) {
    producers.emplace_back([&monitor, t] {
      for (std::uint64_t iter = 0; iter < 5'000; ++iter) {
        BranchReport r = report(t, 1 + iter % 3, CheckCode::SharedOutcome,
                                iter % 2 == 0, iter);
        monitor.send(r);
      }
    });
  }
  for (auto& p : producers) p.join();
  monitor.stop();
  EXPECT_TRUE(monitor.violations().empty());
  EXPECT_EQ(monitor.stats().reports_processed, 20'000u);
}

TEST(Monitor, StopIsIdempotent) {
  Monitor monitor(2);
  monitor.start();
  monitor.send(report(0, 1, CheckCode::SharedOutcome, true));
  monitor.stop();
  monitor.stop();
  EXPECT_EQ(monitor.stats().reports_processed, 1u);
}

}  // namespace
