// Reproduces paper Figure 9: SDC coverage under branch-condition faults
// (single bit flip in the condition data, persisting past the branch).
// Paper reference: average coverage_original 90% (higher than the 83% of
// branch-flip faults, since these flips may not change the branch);
// coverage_BLOCKWATCH 97% at both 4 and 32 threads.
//
// Campaigns run on the parallel engine (see bw_fig8_coverage_flip for the
// column legend); --workers only moves wall-clock, never coverage.
//
//   usage: bw_fig9_coverage_cond [injections] [threads...] [--workers=N]
//          [--json=<file>]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "benchmarks/registry.h"
#include "fault/campaign.h"

int main(int argc, char** argv) {
  using namespace bw;
  unsigned workers = 0;  // 0 = hardware concurrency
  std::vector<unsigned> thread_counts;
  int injections = 150;
  int positional = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_fig9_coverage_cond", "--workers", argv[i] + 10, 0,
          bench::kMaxThreads));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (positional++ == 0) {
      injections = static_cast<int>(support::count_arg_or_exit(
          "bw_fig9_coverage_cond", "injection count", argv[i], 1,
          bench::kMaxInjections));
    } else {
      thread_counts.push_back(static_cast<unsigned>(support::count_arg_or_exit(
          "bw_fig9_coverage_cond", "thread count", argv[i], 1,
          bench::kMaxThreads)));
    }
  }
  if (thread_counts.empty()) thread_counts = {4, 32};

  std::printf("Figure 9: SDC coverage, branch-condition faults (%d "
              "injections per cell; higher is better)\n\n", injections);
  const auto bench_start = std::chrono::steady_clock::now();
  unsigned workers_used = 1;
  struct Row {
    std::string program;
    unsigned threads;
    double orig, prot, ci_lo, ci_hi;
    int detected, crashed, hung, benign, sdc;
  };
  std::vector<Row> rows;
  for (unsigned threads : thread_counts) {
    std::printf("--- %u threads ---\n", threads);
    std::printf("%-22s %10s %12s %17s %8s %28s\n", "Program", "original",
                "BLOCKWATCH", "95% CI", "gain", "protected breakdown");
    double sum_orig = 0.0;
    double sum_prot = 0.0;
    int count = 0;
    for (const benchmarks::Benchmark& bench :
         benchmarks::all_benchmarks()) {
      fault::CampaignOptions options;
      options.num_threads = threads;
      options.injections = injections;
      options.type = fault::FaultType::BranchCondition;
      options.seed = 0xF19'C0DE + threads;
      options.campaign_workers = workers;

      options.protect = false;
      fault::CampaignResult original =
          fault::run_campaign(bench.source, options);
      options.protect = true;
      fault::CampaignResult protected_run =
          fault::run_campaign(bench.source, options);
      fault::ConfidenceInterval ci = protected_run.coverage_interval();
      workers_used = protected_run.workers;

      std::printf(
          "%-22s %9.1f%% %11.1f%% [%5.1f%%, %5.1f%%] %+7.1f%%  det=%d "
          "crash=%d hang=%d benign=%d sdc=%d\n",
          bench.paper_name.c_str(), 100.0 * original.coverage(),
          100.0 * protected_run.coverage(), 100.0 * ci.lo, 100.0 * ci.hi,
          100.0 * (protected_run.coverage() - original.coverage()),
          protected_run.detected, protected_run.crashed, protected_run.hung,
          protected_run.benign, protected_run.sdc);
      sum_orig += original.coverage();
      sum_prot += protected_run.coverage();
      rows.push_back({bench.name, threads, original.coverage(),
                      protected_run.coverage(), ci.lo, ci.hi,
                      protected_run.detected, protected_run.crashed,
                      protected_run.hung, protected_run.benign,
                      protected_run.sdc});
      ++count;
    }
    std::printf("%-22s %9.1f%% %11.1f%%   (paper: 90%% / 97%%)\n\n",
                "average", 100.0 * sum_orig / count,
                100.0 * sum_prot / count);
  }
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - bench_start)
          .count();
  std::printf("total wall-clock %.2f s at %u campaign workers\n", wall_s,
              workers_used);
  if (!json_path.empty()) {
    bench::JsonWriter json("bw_fig9_coverage_cond");
    json.num("injections", injections);
    json.real("wall_s", wall_s, 3);
    json.begin_rows();
    for (const Row& r : rows) {
      json.begin_row();
      json.str("program", r.program);
      json.num("threads", r.threads);
      json.real("coverage_original", r.orig);
      json.real("coverage_protected", r.prot);
      json.real("ci_lo", r.ci_lo);
      json.real("ci_hi", r.ci_hi);
      json.num("detected", r.detected);
      json.num("crashed", r.crashed);
      json.num("hung", r.hung);
      json.num("benign", r.benign);
      json.num("sdc", r.sdc);
      json.end_row();
    }
    json.end_rows();
    if (!json.write(json_path)) return 1;
  }
  return 0;
}
