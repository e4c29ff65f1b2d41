// Differential oracle for the sharded/batched monitor: every shard-count
// x batch-size configuration must be VERDICT-EQUIVALENT to the legacy
// single-consumer Monitor. The harness makes the comparison exact by
// removing execution nondeterminism from the equation:
//
//   1. A randomized race-free BW-C kernel (tests/kernel_generator.h) runs
//      once in the VM with a recording sink that captures each program
//      thread's report stream verbatim.
//   2. The SAME streams are replayed — deterministically, in round-robin
//      producer order — into a legacy Monitor and into ShardedMonitor
//      instances at K in {1,2,4} x batch in {1,8,64}.
//   3. The canonicalized violation set (sorted, order-free) and the
//      instance counters (checked / skipped / evicted / processed /
//      dropped) must match the legacy verdict exactly. Producers use an
//      unbounded backoff, so no replay drops a report (asserted) and the
//      comparison does not depend on host load.
//
// Each stream is compared twice: clean (the no-false-positive guarantee —
// both backends must report nothing) and faulted, where deterministic
// stream-level mutations (sparse outcome flips on one thread, plus a
// synthetic always-divergent instance) force a non-empty violation set
// that both backends must agree on report-for-report.
//
// Why verdicts are partition-invariant — and hence why this must pass:
// a branch key (ctx_hash, static_id) maps wholly to one shard, so the
// per-branch instance lifecycle is the legacy algorithm run on a key
// subspace; batching preserves per-producer report order and content.
// See DESIGN.md "Sharded monitor".
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "kernel_generator.h"
#include "pipeline/pipeline.h"
#include "runtime/monitor.h"
#include "runtime/sharded_monitor.h"
#include "test_support.h"
#include "vm/machine.h"

namespace {

using namespace bw;
using runtime::BranchReport;

/// Everything a monitor concluded, in canonical (order-free) form.
struct Verdict {
  using Key = std::tuple<std::uint32_t, std::uint64_t, std::uint64_t,
                         std::uint8_t, std::uint32_t>;
  std::vector<Key> violations;  // sorted
  std::uint64_t reports_processed = 0;
  std::uint64_t instances_checked = 0;
  std::uint64_t instances_skipped = 0;
  std::uint64_t instances_evicted = 0;
  std::uint64_t dropped_reports = 0;
  std::uint64_t reports_rejected = 0;
};

Verdict canonicalize(const std::vector<runtime::Violation>& violations,
                     const runtime::MonitorStats& stats) {
  Verdict v;
  for (const runtime::Violation& viol : violations) {
    v.violations.emplace_back(viol.static_id, viol.ctx_hash, viol.iter_hash,
                              static_cast<std::uint8_t>(viol.check),
                              viol.suspect_thread);
  }
  std::sort(v.violations.begin(), v.violations.end());
  v.reports_processed = stats.reports_processed;
  v.instances_checked = stats.instances_checked;
  v.instances_skipped = stats.instances_skipped;
  v.instances_evicted = stats.instances_evicted;
  v.dropped_reports = stats.dropped_reports;
  v.reports_rejected = stats.reports_rejected;
  return v;
}

/// Replay the captured streams in deterministic round-robin producer
/// order. The replayer is a single thread, which is legal (each queue
/// still has one pushing thread) and keeps the input identical per run.
template <typename MonitorT>
void replay(MonitorT& monitor,
            const std::vector<std::vector<BranchReport>>& streams) {
  monitor.start();
  std::vector<std::size_t> cursor(streams.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      if (cursor[t] < streams[t].size()) {
        monitor.send(streams[t][cursor[t]++]);
        any = true;
      }
    }
  }
  monitor.stop();
}

// Both sides block on a full queue instead of dropping, so host load can
// slow a replay down but never change what the monitor sees.
constexpr runtime::BackoffPolicy kLossless{.bounded = false};

Verdict legacy_verdict(const std::vector<std::vector<BranchReport>>& streams,
                       unsigned num_threads) {
  runtime::MonitorOptions options;
  options.backoff = kLossless;
  runtime::Monitor monitor(num_threads, options);
  replay(monitor, streams);
  return canonicalize(monitor.violations(), monitor.stats());
}

Verdict sharded_verdict(const std::vector<std::vector<BranchReport>>& streams,
                        unsigned num_threads, unsigned shards,
                        std::size_t batch) {
  runtime::ShardedMonitorOptions options;
  options.num_shards = shards;
  options.batch_size = batch;
  options.backoff = kLossless;
  runtime::ShardedMonitor monitor(num_threads, options);
  replay(monitor, streams);
  return canonicalize(monitor.violations(), monitor.stats());
}

void expect_equivalent(const Verdict& legacy, const Verdict& sharded,
                       unsigned shards, std::size_t batch) {
  SCOPED_TRACE("shards=" + std::to_string(shards) +
               " batch=" + std::to_string(batch));
  EXPECT_EQ(legacy.dropped_reports, 0u);
  EXPECT_EQ(sharded.dropped_reports, 0u);
  EXPECT_EQ(legacy.violations, sharded.violations);
  EXPECT_EQ(legacy.reports_processed, sharded.reports_processed);
  EXPECT_EQ(legacy.instances_checked, sharded.instances_checked);
  EXPECT_EQ(legacy.instances_skipped, sharded.instances_skipped);
  EXPECT_EQ(legacy.instances_evicted, sharded.instances_evicted);
  EXPECT_EQ(legacy.dropped_reports, sharded.dropped_reports);
  EXPECT_EQ(legacy.reports_rejected, sharded.reports_rejected);
}

constexpr unsigned kThreads = 4;
constexpr unsigned kShardCounts[] = {1, 2, 4};
constexpr std::size_t kBatchSizes[] = {1, 8, 64};

/// Deterministic stream-level faults: flip the outcome of a sparse subset
/// of one thread's Outcome reports (models a corrupted flag register seen
/// only by the victim), and append one synthetic instance where the
/// victim disagrees with everyone — guaranteeing the faulted comparison
/// always exercises a NON-EMPTY violation set.
std::vector<std::vector<BranchReport>> mutate_streams(
    std::vector<std::vector<BranchReport>> streams, std::uint64_t seed) {
  const std::uint32_t victim = static_cast<std::uint32_t>(seed % kThreads);
  std::size_t index = 0;
  for (BranchReport& report : streams[victim]) {
    if (report.kind == runtime::ReportKind::Outcome && index++ % 97 == 13) {
      report.outcome = !report.outcome;
    }
  }
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    BranchReport divergent;
    divergent.static_id = 0xd1ffu;
    divergent.thread = t;
    divergent.ctx_hash = 0x5eedULL + seed;
    divergent.iter_hash = 42;
    divergent.kind = runtime::ReportKind::Outcome;
    divergent.check = runtime::CheckCode::SharedOutcome;
    divergent.outcome = t != victim;
    streams[t].push_back(divergent);
  }
  return streams;
}

class MonitorDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorDifferential, ShardedVerdictsMatchLegacyOnRandomKernels) {
  const std::uint64_t seed = GetParam();
  test::ProgramGenerator generator(seed);
  std::string source = generator.generate();
  SCOPED_TRACE(source);

  pipeline::CompiledProgram program;
  ASSERT_NO_THROW(program = pipeline::protect_program(source));

  // One VM run, recorded; every monitor below sees these exact streams.
  test::RecorderSink recorder(kThreads);
  vm::RunOptions ropts;
  ropts.num_threads = kThreads;
  ropts.monitor = &recorder;
  ropts.stop_on_detection = false;
  vm::RunResult run = vm::run_program(*program.module, ropts);
  ASSERT_TRUE(run.ok);

  std::size_t total_reports = 0;
  for (const auto& stream : recorder.streams()) {
    total_reports += stream.size();
  }
  ASSERT_GT(total_reports, 0u) << "kernel produced no reports";

  // Clean streams: the no-false-positive guarantee must hold on every
  // backend, and all counters must agree with the legacy monitor.
  Verdict legacy_clean = legacy_verdict(recorder.streams(), kThreads);
  EXPECT_TRUE(legacy_clean.violations.empty());
  EXPECT_EQ(legacy_clean.reports_processed, total_reports);

  // Faulted streams: both backends must flag the same instances.
  auto faulted = mutate_streams(recorder.streams(), seed);
  Verdict legacy_faulted = legacy_verdict(faulted, kThreads);
  EXPECT_FALSE(legacy_faulted.violations.empty())
      << "mutation failed to produce any violation";

  for (unsigned shards : kShardCounts) {
    for (std::size_t batch : kBatchSizes) {
      expect_equivalent(legacy_clean,
                        sharded_verdict(recorder.streams(), kThreads, shards,
                                        batch),
                        shards, batch);
      expect_equivalent(legacy_faulted,
                        sharded_verdict(faulted, kThreads, shards, batch),
                        shards, batch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorDifferential,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
