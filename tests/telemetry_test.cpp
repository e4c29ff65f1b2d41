// Telemetry subsystem tests: lock-free counter aggregation across threads
// (the stress case doubles as a TSan target), span nesting, event ordering,
// disabled-path no-ops, and the Chrome trace exporter — a golden check on a
// hand-built snapshot plus a structural well-formedness check (via a mini
// JSON parser) on a real scraped trace.
#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

#include "pipeline/pipeline.h"
#include "support/telemetry/telemetry.h"

namespace {

using namespace bw;
namespace tel = bw::telemetry;

class TelemetryTest : public ::testing::Test {
 protected:
  // The registry is process-global; every case starts from a clean, enabled
  // slate and leaves telemetry off so unrelated suites record nothing.
  void SetUp() override {
    tel::set_enabled(true);
    tel::reset();
  }
  void TearDown() override {
    tel::set_enabled(false);
    tel::reset();
  }
};

// ---------------------------------------------------------------------------
// Mini JSON parser: just enough to prove the exporter emits well-formed
// JSON (objects, arrays, strings, numbers, bools, null) without taking a
// dependency. parse() returns false on the first structural error.
// ---------------------------------------------------------------------------
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool parse() {
    pos_ = 0;
    return value() && (skip_ws(), pos_ == text_.size());
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  bool string() {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      if (!value()) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') { ++pos_; continue; }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != '}') return false;
    ++pos_;
    return true;
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') return ++pos_, true;
    for (;;) {
      if (!value()) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') { ++pos_; continue; }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ']') return false;
    ++pos_;
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

constexpr const char* kBarrierKernel = R"BWC(
global int n = 32;
global int data[32];
global int sums[4];
func init() {
  for (int i = 0; i < n; i = i + 1) { data[i] = i % 7; }
}
func slave() {
  int p = nthreads();
  int id = tid();
  int s = 0;
  for (int i = id; i < n; i = i + p) {
    if (data[i] % 2 == 0) { s = s + 1; }
  }
  barrier();
  sums[id] = s;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + sums[t]; }
    print_i(total);
  }
}
)BWC";

// Everything that records requires the hooks to be compiled in; under
// -DBW_TELEMETRY=OFF only the no-op contract and the exporters (pure
// functions of a Snapshot) are testable.
#if !defined(BW_TELEMETRY_DISABLED)

TEST_F(TelemetryTest, CountersAggregateAcrossThreads) {
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tel::counter_add(tel::Counter::ReportsSent);
        tel::counter_add(tel::Counter::InstancesChecked, 3);
        tel::histogram_record(tel::Histogram::CheckpointNs, i % 64);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  tel::Snapshot snap = tel::scrape();
  EXPECT_EQ(snap.counter(tel::Counter::ReportsSent), kThreads * kPerThread);
  EXPECT_EQ(snap.counter(tel::Counter::InstancesChecked),
            kThreads * kPerThread * 3);
  EXPECT_EQ(snap.histogram_count(tel::Histogram::CheckpointNs),
            kThreads * kPerThread);
}

TEST_F(TelemetryTest, GaugeLastWriteWinsAndHistogramBuckets) {
  tel::gauge_set(tel::Gauge::NumThreads, 8);
  tel::gauge_set(tel::Gauge::NumThreads, 16);
  tel::histogram_record(tel::Histogram::CheckpointNs, 0);
  tel::histogram_record(tel::Histogram::CheckpointNs, 1);
  tel::histogram_record(tel::Histogram::CheckpointNs, 100);  // bucket 7

  tel::Snapshot snap = tel::scrape();
  EXPECT_EQ(snap.gauge(tel::Gauge::NumThreads), 16u);
  const auto& buckets =
      snap.histograms[static_cast<std::size_t>(tel::Histogram::CheckpointNs)];
  EXPECT_EQ(buckets[0], 1u);  // value 0
  EXPECT_EQ(buckets[1], 1u);  // value 1: [1, 2)
  EXPECT_EQ(buckets[7], 1u);  // value 100: [64, 128)
  EXPECT_EQ(snap.histogram_count(tel::Histogram::CheckpointNs), 3u);
}

TEST_F(TelemetryTest, SpanNestingDepthsAndSortOrder) {
  {
    tel::SpanScope outer(tel::Phase::Frontend, "outer");
    {
      tel::SpanScope mid(tel::Phase::Analysis, "mid");
      tel::SpanScope inner(tel::Phase::Analysis, "inner");
    }
  }
  tel::Snapshot snap = tel::scrape();
  ASSERT_EQ(snap.spans.size(), 3u);
  // Sorted by (start asc, end desc): enclosing spans precede enclosed ones,
  // which is the order Perfetto expects for correct lane nesting.
  EXPECT_STREQ(snap.spans[0].name, "outer");
  EXPECT_STREQ(snap.spans[1].name, "mid");
  EXPECT_STREQ(snap.spans[2].name, "inner");
  EXPECT_EQ(snap.spans[0].depth, 0u);
  EXPECT_EQ(snap.spans[1].depth, 1u);
  EXPECT_EQ(snap.spans[2].depth, 2u);
  for (const tel::SpanRecord& span : snap.spans) {
    EXPECT_LE(span.start_ns, span.end_ns);
  }
  EXPECT_LE(snap.spans[0].start_ns, snap.spans[1].start_ns);
  EXPECT_GE(snap.spans[0].end_ns, snap.spans[2].end_ns);
}

#endif  // !BW_TELEMETRY_DISABLED

TEST_F(TelemetryTest, DisabledCallsRecordNothing) {
  tel::set_enabled(false);
  tel::counter_add(tel::Counter::Violations, 42);
  tel::gauge_set(tel::Gauge::MonitorShards, 7);
  tel::histogram_record(tel::Histogram::RestoreNs, 9);
  tel::record_event(tel::EventKind::Violation, tel::Phase::MonitorCheck, 1);
  { tel::SpanScope span(tel::Phase::Execution, "ignored"); }

  tel::Snapshot snap = tel::scrape();
  EXPECT_EQ(snap.counter(tel::Counter::Violations), 0u);
  EXPECT_EQ(snap.gauge(tel::Gauge::MonitorShards), 0u);
  EXPECT_EQ(snap.histogram_count(tel::Histogram::RestoreNs), 0u);
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.events.empty());
}

#if !defined(BW_TELEMETRY_DISABLED)

TEST_F(TelemetryTest, EventsSortedByTimestampWithArgsPreserved) {
  tel::record_event(tel::EventKind::Violation, tel::Phase::MonitorCheck, 7,
                    0xabcd, 0x1234);
  tel::record_event(tel::EventKind::Rollback, tel::Phase::Recovery, 3, 1, 0);
  tel::record_event(tel::EventKind::QueueHighWater, tel::Phase::MonitorCheck,
                    2, 1);

  tel::Snapshot snap = tel::scrape();
  ASSERT_EQ(snap.events.size(), 3u);
  for (std::size_t i = 1; i < snap.events.size(); ++i) {
    EXPECT_LE(snap.events[i - 1].ts_ns, snap.events[i].ts_ns);
  }
  EXPECT_EQ(snap.events[0].kind, tel::EventKind::Violation);
  EXPECT_EQ(snap.events[0].a0, 7u);
  EXPECT_EQ(snap.events[0].a1, 0xabcdu);
  EXPECT_EQ(snap.events[0].a2, 0x1234u);
}

#endif  // !BW_TELEMETRY_DISABLED

TEST_F(TelemetryTest, ChromeTraceGoldenSnapshot) {
  // Hand-built snapshot -> byte-exact expected JSON. If the exporter's
  // format changes, this golden string (and docs/observability.md) must
  // change with it.
  tel::Snapshot snap;
  tel::SpanRecord span;
  span.name = "vm.run";
  span.phase = tel::Phase::Execution;
  span.tid = 2;
  span.depth = 0;
  span.start_ns = 1500;
  span.end_ns = 4500;
  snap.spans.push_back(span);
  tel::EventRecord event;
  event.kind = tel::EventKind::Violation;
  event.phase = tel::Phase::MonitorCheck;
  event.tid = 3;
  event.ts_ns = 2000;
  event.a0 = 7;
  event.a1 = 11;
  event.a2 = 13;
  snap.events.push_back(event);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"blockwatch\"}},"
      "{\"name\":\"vm.run\",\"cat\":\"execution\",\"ph\":\"X\",\"pid\":1,"
      "\"tid\":2,\"ts\":1.500,\"dur\":3.000,\"args\":{\"depth\":0}},"
      "{\"name\":\"violation\",\"cat\":\"monitor_check\",\"ph\":\"i\","
      "\"s\":\"t\",\"pid\":1,\"tid\":3,\"ts\":2.000,"
      "\"args\":{\"static_id\":7,\"ctx_hash\":11,\"iter_hash\":13}}"
      "]}";
  EXPECT_EQ(tel::to_chrome_trace(snap), expected);
  EXPECT_TRUE(JsonChecker(expected).parse());
}

#if !defined(BW_TELEMETRY_DISABLED)

TEST_F(TelemetryTest, PipelineTraceIsWellFormedOrderedAndCoversSixPhases) {
  pipeline::CompiledProgram program = pipeline::protect_program(kBarrierKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  config.recovery.enabled = true;  // checkpoint spans give the Recovery phase
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  ASSERT_TRUE(result.run.ok);

  tel::Snapshot snap = tel::scrape();
  bool phase_seen[static_cast<std::size_t>(tel::Phase::kCount)] = {};
  for (const tel::SpanRecord& span : snap.spans) {
    phase_seen[static_cast<std::size_t>(span.phase)] = true;
  }
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(tel::Phase::Frontend)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(tel::Phase::Analysis)]);
  EXPECT_TRUE(
      phase_seen[static_cast<std::size_t>(tel::Phase::Instrumentation)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(tel::Phase::Execution)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(tel::Phase::MonitorCheck)]);
  EXPECT_TRUE(phase_seen[static_cast<std::size_t>(tel::Phase::Recovery)]);

  // The pipeline published the Table V gauges and run accounting.
  EXPECT_GT(snap.gauge(tel::Gauge::AnalysisBranchesTotal), 0u);
  EXPECT_EQ(snap.gauge(tel::Gauge::NumThreads), 4u);
  EXPECT_EQ(snap.counter(tel::Counter::RunsExecuted), 1u);
  EXPECT_GT(snap.counter(tel::Counter::ReportsSent), 0u);
  EXPECT_GT(snap.counter(tel::Counter::CheckpointsCommitted), 0u);

  // The exported trace is valid JSON and span timestamps are monotone.
  const std::string trace = tel::to_chrome_trace(snap);
  EXPECT_TRUE(JsonChecker(trace).parse()) << trace.substr(0, 400);
  for (std::size_t i = 1; i < snap.spans.size(); ++i) {
    EXPECT_LE(snap.spans[i - 1].start_ns, snap.spans[i].start_ns);
  }
  // The metrics JSON exporter is valid JSON too.
  EXPECT_TRUE(JsonChecker(tel::to_json(snap)).parse());
}

// monitor.shards names the shard count the run used: the service's for a
// session (whatever ExecutionConfig::monitor_shards says, which
// execute_in_session ignores), 0 for the legacy Monitor.
TEST_F(TelemetryTest, MonitorShardsGaugeNamesTheShardsTheRunUsed) {
  pipeline::CompiledProgram program = pipeline::protect_program(kBarrierKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  runtime::MonitorServiceOptions options;
  options.num_shards = 2;
  runtime::MonitorService service(options);
  service.start();
  ASSERT_TRUE(pipeline::execute_in_session(program, config, service).run.ok);
  service.stop();
  EXPECT_EQ(tel::scrape().gauge(tel::Gauge::MonitorShards), 2u);

  config.monitor_shards = 3;
  ASSERT_TRUE(pipeline::execute(program, config).run.ok);
  EXPECT_EQ(tel::scrape().gauge(tel::Gauge::MonitorShards), 3u);

  config.monitor_shards = 0;
  ASSERT_TRUE(pipeline::execute(program, config).run.ok);
  EXPECT_EQ(tel::scrape().gauge(tel::Gauge::MonitorShards), 0u);
}

TEST_F(TelemetryTest, ResetDropsEverything) {
  tel::counter_add(tel::Counter::ReportsSent, 5);
  tel::record_event(tel::EventKind::Checkpoint, tel::Phase::Recovery, 1, 2);
  { tel::SpanScope span(tel::Phase::Other, "gone"); }
  tel::reset();
  tel::Snapshot snap = tel::scrape();
  EXPECT_EQ(snap.counter(tel::Counter::ReportsSent), 0u);
  EXPECT_TRUE(snap.spans.empty());
  EXPECT_TRUE(snap.events.empty());
}

#endif  // !BW_TELEMETRY_DISABLED

}  // namespace
