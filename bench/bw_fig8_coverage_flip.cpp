// Reproduces paper Figure 8: SDC coverage under branch-flip faults for
// each program, original vs BLOCKWATCH-protected, at 4 and 32 threads.
// Paper reference: average coverage_original 83%; coverage_BLOCKWATCH 97%
// (4 threads) / 98% (32 threads); all programs 99-100% except raytrace
// (~85%, no better than unprotected).
//
// Campaigns run on the parallel engine; coverage is worker-count-
// invariant (per-injection RNG streams), so --workers only moves
// wall-clock. The bracketed column is the Wilson 95% interval on the
// protected coverage — the error bar the paper's Figure 8 bars omit.
//
//   usage: bw_fig8_coverage_flip [injections] [threads...] [--workers=N]
//          [--tier=auto|interpreter|threaded] [--json=<file>]
//
// --tier selects the VM dispatcher for every run (vm/dispatch.h; auto =
// threaded). Coverage is tier-invariant — the tiers retire identical
// logical instruction streams, guarded by tests/tier_differential_test.cpp
// — so switching tiers only moves the wall-clock line at the bottom.
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
  vm::ExecTier tier = vm::ExecTier::Auto;
  std::vector<unsigned> thread_counts;
  int injections = 150;
  int positional = 0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_fig8_coverage_flip", "--workers", argv[i] + 10, 0,
          bench::kMaxThreads));
    } else if (std::strncmp(argv[i], "--tier=", 7) == 0) {
      if (!vm::parse_exec_tier(argv[i] + 7, tier)) {
        std::fprintf(stderr, "unknown tier '%s'\n", argv[i] + 7);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (positional++ == 0) {
      injections = static_cast<int>(support::count_arg_or_exit(
          "bw_fig8_coverage_flip", "injection count", argv[i], 1,
          bench::kMaxInjections));
    } else {
      thread_counts.push_back(static_cast<unsigned>(support::count_arg_or_exit(
          "bw_fig8_coverage_flip", "thread count", argv[i], 1,
          bench::kMaxThreads)));
    }
  }
  if (thread_counts.empty()) thread_counts = {4, 32};

  std::printf("Figure 8: SDC coverage, branch-flip faults (%d injections "
              "per cell; higher is better)\n", injections);
  std::printf("vm tier: %s\n\n", vm::to_string(vm::resolve_tier(tier)));
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
      options.type = fault::FaultType::BranchFlip;
      options.seed = 0xF16'8000 + threads;
      options.campaign_workers = workers;
      options.exec_tier = tier;

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
    std::printf("%-22s %9.1f%% %11.1f%%   (paper: 83%% / 97-98%%)\n\n",
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
    bench::JsonWriter json("bw_fig8_coverage_flip");
    json.num("injections", injections);
    json.str("tier", vm::to_string(vm::resolve_tier(tier)));
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
