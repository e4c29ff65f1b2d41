// Reproduces the paper's false-positive experiment (Section IV): run each
// instrumented program many times fault-free and confirm the monitor never
// reports anything. Paper: 100 error-free runs per program, zero reports.
//
// The clean runs execute on the campaign worker pool
// (fault::run_clean_campaign) — each run is independent, so the experiment
// parallelizes perfectly and the violation count is a plain sum. The
// Wilson 95% upper bound on the per-run false-positive rate quantifies
// what "zero violations in N runs" actually proves. --shards=K runs each
// program as the only session of a private K-shard MonitorService
// (ExecutionConfig::monitor_shards; 0, the default, is the legacy Monitor).
//
//   usage: bw_false_positives [runs_per_program] [threads] [--workers=N]
//          [--shards=K]
#include <cstdio>
#include <cstring>

#include "bench_args.h"
#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "fault/stats.h"
#include "pipeline/pipeline.h"

int main(int argc, char** argv) {
  using namespace bw;
  unsigned workers = 0;  // 0 = hardware concurrency
  unsigned shards = 0;   // 0 = legacy single-consumer monitor
  int runs = 100;
  unsigned threads = 4;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_false_positives", "--workers", argv[i] + 10, 0,
          bench::kMaxThreads));
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_false_positives", "--shards", argv[i] + 9, 0,
          bench::kMaxShards));
    } else if (positional++ == 0) {
      runs = static_cast<int>(support::count_arg_or_exit(
          "bw_false_positives", "run count", argv[i], 1, bench::kMaxReps));
    } else {
      threads = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_false_positives", "thread count", argv[i], 1,
          bench::kMaxThreads));
    }
  }

  std::printf("False-positive check: %d clean instrumented runs per "
              "program, %u threads, monitor shards %u\n\n",
              runs, threads, shards);
  int total_violations = 0;
  int total_runs = 0;
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench.source);
    pipeline::ExecutionConfig config;
    config.num_threads = threads;
    config.monitor_shards = shards;
    fault::CleanRunResult clean =
        fault::run_clean_campaign(program, config, runs, workers);
    std::printf("%-22s %4d runs, %12llu reports, %12llu checks, "
                "%d violations%s\n",
                bench.paper_name.c_str(), clean.runs,
                static_cast<unsigned long long>(clean.reports),
                static_cast<unsigned long long>(clean.checks),
                clean.violations,
                clean.failures > 0 ? "  !! runs did not complete" : "");
    total_violations += clean.violations + clean.failures;
    total_runs += clean.runs;
  }
  fault::ConfidenceInterval fp_rate = fault::wilson_interval(
      0, static_cast<std::uint64_t>(total_runs));
  std::printf("\ntotal violations: %d over %d runs (paper: 0 — BLOCKWATCH "
              "has no false positives by construction)\n",
              total_violations, total_runs);
  std::printf("per-run false-positive rate Wilson 95%% upper bound: "
              "%.3f%%\n", 100.0 * fp_rate.hi);
  return total_violations == 0 ? 0 : 1;
}
