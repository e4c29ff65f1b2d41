// bwperf --selftest: checks of the benchmark's own logic. The order
// statistics, the seeded plans, the traced path against the untraced one,
// and a smoke run of every workload in both modes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "benchmarks/registry.h"
#include "stats.h"

namespace bwperf {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_stats() {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  expect(percentile(samples, 0.5) == 50, "median of 1..100 is 50");
  expect(percentile(samples, 0.9) == 90, "p90 of 1..100 is 90");
  expect(percentile(samples, 1.0) == 100, "p100 is the maximum");
  expect(percentile({7.0}, 0.9) == 7, "a single sample is every percentile");
  expect(percentile({}, 0.5) == 0, "no samples read 0");
  expect(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  expect(samples_beyond(99, 0.9) == 9, "99 samples leave 9 beyond p90");
  expect(samples_for_tail(0.9) == 100, "p90 needs 100 samples for 10 beyond");
  expect(samples_for_tail(0.5) == 20, "p50 needs 20 samples for 10 beyond");
  expect(interquartile_mean(samples) == 50.5,
         "interquartile mean of 1..100 is the mean of 26..75");
  expect(interquartile_mean({1.0, 2.0, 3.0, 1000.0}) == 2.5,
         "the interquartile mean ignores the tail");
  expect(std::abs(geomean({2.0, 8.0}) - 4.0) < 1e-12, "geomean of 2, 8 is 4");
  expect(geomean({}) == 0, "geomean of nothing reads 0");
  expect(mean({1.0, 2.0, 6.0}) == 3, "mean of 1, 2, 6 is 3");
}

void test_seeded_plans(const std::string& scratch_dir) {
  auto rounds = [](std::uint64_t seed) {
    bw::support::SplitMixRng rng(seed);
    std::vector<std::vector<std::size_t>> orders;
    for (int round = 0; round < 5; ++round) {
      orders.push_back(shuffled(7, rng));
    }
    return orders;
  };
  const auto a = rounds(42);
  expect(a == rounds(42), "the same seed generates the same kernel order");
  expect(a != rounds(43), "another seed generates another kernel order");
  std::vector<std::size_t> sorted = a.front();
  std::sort(sorted.begin(), sorted.end());
  expect(sorted == std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6},
         "a round visits every kernel once");

  const bw::benchmarks::Benchmark* fft = bw::benchmarks::find_benchmark("fft");
  const std::string path = scratch_dir + "/selftest.ckpt";
  auto verdicts = [&](std::uint64_t seed) {
    return bw::fault::run_campaign(fft->source,
                                   campaign_options(seed, 12, path))
        .verdicts;
  };
  const auto first = verdicts(42);
  expect(first.size() == 12, "the campaign runs its whole plan");
  expect(first == verdicts(42), "the same seed yields the same campaign");
  bool seeds_differ = false;
  for (std::uint32_t i = 0; i < 12; ++i) {
    seeds_differ |= bw::fault::injection_seed(42, i) !=
                    bw::fault::injection_seed(43, i);
  }
  expect(seeds_differ, "another seed draws another injection plan");
}

void test_traced_matches_untraced() {
  const bw::benchmarks::Benchmark* fft = bw::benchmarks::find_benchmark("fft");
  const auto base = bw::pipeline::compile_program(fft->source);
  const auto program = bw::pipeline::protect_program(fft->source);
  const std::string golden =
      bw::pipeline::execute(base, steady_config(bw::pipeline::MonitorMode::Off))
          .run.output;

  const auto plain =
      bw::pipeline::execute(program, steady_config(bw::pipeline::MonitorMode::Full));
  const TracedRun traced = run_traced(program);
  expect(plain.run.output == golden && traced.result.run.output == golden,
         "traced and untraced fft print the golden output");
  expect(!plain.detected && !traced.result.detected,
         "neither clean fft run is flagged");
  std::uint64_t recorded = 0;
  for (const auto& stream : traced.streams) recorded += stream.size();
  expect(recorded == traced.result.monitor_stats.reports_processed,
         "the recorder saw every report the monitor processed");

  bw::vm::FaultPlan fault;
  fault.active = true;
  fault.thread = 1;
  fault.target_branch = 3;
  auto config = steady_config(bw::pipeline::MonitorMode::Full);
  config.fault = fault;
  const auto plain_fault = bw::pipeline::execute(program, config);
  const TracedRun traced_fault = run_traced(program, fault);
  expect(plain_fault.detected && traced_fault.result.detected &&
             plain_fault.run.output == traced_fault.result.run.output,
         "traced and untraced fft agree on a flipped branch");

  const bw::benchmarks::Benchmark* auth =
      bw::benchmarks::find_benchmark("auth_check");
  const auto auth_base = bw::pipeline::compile_program(auth->source);
  const auto auth_program = bw::pipeline::protect_program(auth->source);
  const std::string auth_golden =
      bw::pipeline::execute(auth_base,
                            steady_config(bw::pipeline::MonitorMode::Off))
          .run.output;
  bw::runtime::MonitorService service(service_options());
  service.start();
  const auto session = bw::pipeline::execute_in_session(
      auth_program, session_config(), service);
  const TracedSession steps = run_traced_session(auth_program, service);
  service.stop();
  expect(session.run.output == auth_golden &&
             steps.result.run.output == auth_golden &&
             !session.detected && !steps.result.detected,
         "traced and untraced auth_check sessions agree");
}

void test_smoke(const std::string& scratch_dir) {
  for (const char* workload : kWorkloads) {
    for (bool trace : {false, true}) {
      Options options;
      options.workload = workload;
      options.seed = 7;
      options.seconds = 0.2;
      options.trace = trace;
      options.smoke = true;
      options.scratch_dir = scratch_dir;
      const Report report = run_workload(options);
      const auto& specs = trace ? kPerLayer : kEndToEnd;
      bool names_match = report.metrics.size() == specs.size();
      for (std::size_t i = 0; names_match && i < specs.size(); ++i) {
        names_match = report.metrics[i].name == specs[i].name &&
                      report.metrics[i].unit == specs[i].unit;
      }
      const std::string what = std::string(workload) +
                               (trace ? " traced" : " untraced") + " smoke";
      expect(report.correct && report.attempted > 0 && report.failed == 0,
             what + " is correct");
      expect(names_match, what + " reports exactly its metric list");
    }
  }
}

}  // namespace

int run_selftest(const std::string& scratch_dir) {
  std::filesystem::create_directories(scratch_dir);
  test_stats();
  test_seeded_plans(scratch_dir);
  test_traced_matches_untraced();
  test_smoke(scratch_dir);
  std::printf("selftest: %s\n", g_failures == 0 ? "passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace bwperf
