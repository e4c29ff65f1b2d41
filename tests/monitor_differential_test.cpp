// Differential oracle for the two monitor backends: the legacy
// single-consumer Monitor and a one-session MonitorService (the engine
// pipeline::execute() runs for monitor_shards >= 1) at every shard-count
// x ring-capacity configuration must be VERDICT-EQUIVALENT to a reference
// that is not a backend at all. The harness makes the comparison exact
// by removing execution nondeterminism from the equation:
//
//   1. A randomized race-free BW-C kernel (tests/kernel_generator.h) runs
//      once in the VM with a recording sink that captures each program
//      thread's report stream verbatim.
//   2. The reference verdict replays those streams single-threaded, in
//      round-robin producer order, straight into one runtime::BranchTable
//      and then finalize()s it: no queues, no threads, no staging.
//   3. The SAME streams are replayed in the same order into a legacy
//      Monitor and into one-session MonitorService instances at K in
//      {1,2,4} x ring capacity in {8,64,1024} reports. The 8-report ring
//      (15 slots) is smaller than one stride, so its runs are published
//      by a full ring; the larger ones publish at the stride. The
//      canonicalized violation set
//      (sorted, order-free) and the checked / skipped / evicted /
//      processed counters must match the reference exactly. Producers use
//      an unbounded backoff, so no replay drops a report (asserted on
//      every side) and the comparison does not depend on host load.
//
// Each stream is compared twice: clean (the no-false-positive guarantee —
// every side must report nothing) and faulted, where deterministic
// stream-level mutations (sparse outcome flips on one thread, plus a
// synthetic always-divergent instance) force a non-empty violation set
// that every backend must reproduce report-for-report.
//
// Why verdicts are partition-invariant — and hence why this must pass:
// a branch key (ctx_hash, static_id) maps wholly to one shard, so the
// per-branch instance lifecycle is the reference table's algorithm run on
// a key subspace; staging and publishing in runs preserve per-producer
// report order and content. See DESIGN.md §4.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "kernel_generator.h"
#include "pipeline/pipeline.h"
#include "runtime/branch_table.h"
#include "runtime/monitor.h"
#include "runtime/monitor_service.h"
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

using Streams = std::vector<std::vector<BranchReport>>;

/// Feed the captured streams to `sink` in deterministic round-robin
/// producer order. The replayer is a single thread, which is legal (each
/// queue still has one pushing thread) and keeps the input identical per
/// run.
template <typename Sink>
void replay(Sink& sink, const Streams& streams) {
  std::vector<std::size_t> cursor(streams.size(), 0);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t t = 0; t < streams.size(); ++t) {
      if (cursor[t] < streams[t].size()) {
        sink.send(streams[t][cursor[t]++]);
        any = true;
      }
    }
  }
}

/// The reference: the streams filed straight into one table.
Verdict reference_verdict(const Streams& streams, unsigned num_threads) {
  runtime::BranchTable table(num_threads,
                             runtime::MonitorOptions{}.max_pending_per_branch);
  struct TableSink {
    runtime::BranchTable& table;
    std::uint64_t processed = 0;
    void send(const BranchReport& report) {
      table.process(report, /*degraded=*/false);
      ++processed;
    }
  } sink{table};
  replay(sink, streams);
  table.finalize(/*degraded=*/false);
  runtime::MonitorStats stats;
  stats.reports_processed = sink.processed;
  stats.instances_checked = table.instances_checked();
  stats.instances_skipped = table.instances_skipped();
  stats.instances_evicted = table.instances_evicted();
  return canonicalize(table.violations(), stats);
}

// Both backends block on a full queue instead of dropping, so host load
// can slow a replay down but never change what the monitor sees.
constexpr runtime::BackoffPolicy kLossless{.bounded = false};

Verdict legacy_verdict(const Streams& streams, unsigned num_threads) {
  runtime::MonitorOptions options;
  options.backoff = kLossless;
  runtime::Monitor monitor(num_threads, options);
  monitor.start();
  replay(monitor, streams);
  monitor.stop();
  return canonicalize(monitor.violations(), monitor.stats());
}

Verdict service_verdict(const Streams& streams, unsigned num_threads,
                        unsigned shards, std::size_t ring_capacity) {
  runtime::MonitorServiceOptions options;
  options.num_shards = shards;
  options.queue_capacity = ring_capacity;
  options.backoff = kLossless;
  runtime::MonitorService service(options);
  service.start();
  runtime::SessionOptions session_options;
  session_options.num_threads = num_threads;
  runtime::MonitorService::Admission admission =
      service.admit(session_options);
  EXPECT_EQ(admission.error, runtime::AdmitError::None);
  runtime::MonitorSession& session = *admission.session;
  replay(session, streams);
  session.close();
  Verdict verdict = canonicalize(session.violations(), session.stats());
  service.stop();
  return verdict;
}

void expect_equivalent(const Verdict& reference, const Verdict& backend,
                       const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(backend.dropped_reports, 0u);
  EXPECT_EQ(reference.violations, backend.violations);
  EXPECT_EQ(reference.reports_processed, backend.reports_processed);
  EXPECT_EQ(reference.instances_checked, backend.instances_checked);
  EXPECT_EQ(reference.instances_skipped, backend.instances_skipped);
  EXPECT_EQ(reference.instances_evicted, backend.instances_evicted);
  EXPECT_EQ(reference.reports_rejected, backend.reports_rejected);
}

constexpr unsigned kThreads = 4;
constexpr unsigned kShardCounts[] = {1, 2, 4};
constexpr std::size_t kRingCapacities[] = {8, 64, 1024};

/// Deterministic stream-level faults: flip the outcome of a sparse subset
/// of one thread's Outcome reports (models a corrupted flag register seen
/// only by the victim), and append one synthetic instance where the
/// victim disagrees with everyone — guaranteeing the faulted comparison
/// always exercises a NON-EMPTY violation set.
Streams mutate_streams(Streams streams, std::uint64_t seed) {
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
  // side. Faulted streams: every side must flag the same instances.
  const Streams& clean = recorder.streams();
  const Streams faulted = mutate_streams(clean, seed);
  const Verdict reference_clean = reference_verdict(clean, kThreads);
  const Verdict reference_faulted = reference_verdict(faulted, kThreads);
  EXPECT_TRUE(reference_clean.violations.empty());
  EXPECT_EQ(reference_clean.reports_processed, total_reports);
  EXPECT_FALSE(reference_faulted.violations.empty())
      << "mutation failed to produce any violation";

  expect_equivalent(reference_clean, legacy_verdict(clean, kThreads),
                    "legacy, clean");
  expect_equivalent(reference_faulted, legacy_verdict(faulted, kThreads),
                    "legacy, faulted");
  for (unsigned shards : kShardCounts) {
    for (std::size_t ring : kRingCapacities) {
      const std::string label = "service shards=" + std::to_string(shards) +
                                " ring=" + std::to_string(ring);
      expect_equivalent(reference_clean,
                        service_verdict(clean, kThreads, shards, ring),
                        label + ", clean");
      expect_equivalent(reference_faulted,
                        service_verdict(faulted, kThreads, shards, ring),
                        label + ", faulted");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorDifferential,
                         ::testing::Range<std::uint64_t>(1, 51));

}  // namespace
