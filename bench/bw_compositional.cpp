// Compositional-campaign bench: full (monolithic) campaign wall-clock vs
// the per-phase engine, cold and with a warm phase-outcome cache — the
// incremental-recheck workflow fault/compositional.h exists for. For each
// registry kernel the bench runs
//   * the monolithic engine (the whole-program baseline),
//   * the compositional engine cold (golden capture + every phase
//     injected, checkpointing its phase outcomes to a v3 file),
//   * the compositional engine again on the same file (the "nothing
//     changed" recheck: every phase served from cache, only the golden
//     capture re-runs),
// and reports composed-vs-monolithic SDC estimates with both Wilson 95%
// intervals, the phase/cache accounting, and the recheck speedup. The
// composed and monolithic columns must overlap — the same invariant
// tests/compositional_test.cpp proves per kernel — and the cached column
// is the wall-clock argument for composition.
//
//   usage: bw_compositional [injections] [threads] [--workers=N]
//          [--seed=S] [--tier=auto|interpreter|threaded] [--json=<file>]
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
#include "fault/compositional.h"

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace bw;
  int injections = 120;
  unsigned threads = 4;
  unsigned workers = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 0xc03b05ed;
  vm::ExecTier tier = vm::ExecTier::Auto;
  std::string json_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_compositional", "--workers", argv[i] + 10, 0,
          bench::kMaxThreads));
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 0);
    } else if (std::strncmp(argv[i], "--tier=", 7) == 0) {
      if (!vm::parse_exec_tier(argv[i] + 7, tier)) {
        std::fprintf(stderr, "unknown tier '%s'\n", argv[i] + 7);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (positional == 0) {
      injections = static_cast<int>(support::count_arg_or_exit(
          "bw_compositional", "injection count", argv[i], 1,
          bench::kMaxInjections));
      ++positional;
    } else {
      threads = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_compositional", "thread count", argv[i], 1,
          bench::kMaxThreads));
    }
  }

  std::printf("Compositional campaigns: monolithic vs per-phase, "
              "branch-flip, %d injections, %u threads\n",
              injections, threads);
  std::printf("vm tier: %s\n\n", vm::to_string(vm::resolve_tier(tier)));
  std::printf("%-14s %6s | %8s %17s | %8s %17s | %9s %9s %9s %8s %6s\n",
              "Program", "phases", "mono sdc", "mono 95% CI", "comp sdc",
              "comp 95% CI", "mono ms", "cold ms", "recheck", "speedup",
              "hits");

  struct Row {
    std::string program;
    unsigned phases;
    double mono_sdc, mono_lo, mono_hi;
    double comp_sdc, comp_lo, comp_hi;
    double mono_ms, cold_ms, recheck_ms, speedup;
    int cache_hits, cached_injections;
    bool overlap;
  };
  std::vector<Row> rows;
  bool all_overlap = true;
  const auto bench_start = std::chrono::steady_clock::now();

  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    fault::CampaignOptions options;
    options.num_threads = std::min(threads, bench.max_threads);
    options.injections = injections;
    options.type = fault::FaultType::BranchFlip;
    options.seed = seed;
    options.protect = true;
    options.campaign_workers = workers;
    options.exec_tier = tier;

    auto start = std::chrono::steady_clock::now();
    fault::CampaignResult mono = fault::run_campaign(bench.source, options);
    const double mono_ms = ms_since(start);

    const std::string ckpt =
        "/tmp/bw_compositional_" + bench.name + ".ckpt";
    std::remove(ckpt.c_str());
    options.checkpoint_file = ckpt;
    start = std::chrono::steady_clock::now();
    fault::CompositionalResult cold =
        fault::run_compositional_campaign(bench.source, options);
    const double cold_ms = ms_since(start);
    if (cold.refused) {
      std::fprintf(stderr, "%s: refused: %s\n", bench.name.c_str(),
                   cold.refusal_reason.c_str());
      return 1;
    }

    // Incremental recheck: nothing changed, so phase outcomes come out of
    // the v3 cache and only the golden capture re-executes. Kernels with
    // lock-protected accumulation (water_nsq) may still re-inject a few
    // phases: the registers holding a thread's intermediate reads depend
    // on the run's lock-acquisition order, so downstream entry
    // fingerprints are legitimately run-dependent — the cache re-injects
    // conservatively rather than ever serving a stale phase.
    start = std::chrono::steady_clock::now();
    fault::CompositionalResult recheck =
        fault::run_compositional_campaign(bench.source, options);
    const double recheck_ms = ms_since(start);
    std::remove(ckpt.c_str());
    if (recheck.phase_cache_hits == 0) {
      std::fprintf(stderr, "%s: recheck served nothing from cache (%d "
                   "executed, %d phase misses)\n", bench.name.c_str(),
                   recheck.injections_executed, recheck.phase_cache_misses);
      return 1;
    }

    fault::ConfidenceInterval mci = mono.sdc_interval();
    fault::ConfidenceInterval cci = cold.composed.sdc_interval();
    const bool overlap = mci.lo <= cci.hi && cci.lo <= mci.hi;
    all_overlap = all_overlap && overlap;

    Row row;
    row.program = bench.paper_name;
    row.phases = cold.phase_count;
    row.mono_sdc = mono.activated ? 1.0 - mono.coverage() : 0.0;
    row.mono_lo = mci.lo;
    row.mono_hi = mci.hi;
    row.comp_sdc =
        cold.composed.activated ? 1.0 - cold.composed.coverage() : 0.0;
    row.comp_lo = cci.lo;
    row.comp_hi = cci.hi;
    row.mono_ms = mono_ms;
    row.cold_ms = cold_ms;
    row.recheck_ms = recheck_ms;
    row.speedup = recheck_ms > 0.0 ? cold_ms / recheck_ms : 0.0;
    row.cache_hits = recheck.phase_cache_hits;
    row.cached_injections = recheck.injections_cached;
    row.overlap = overlap;
    rows.push_back(row);

    std::printf("%-14s %6u | %7.1f%% [%5.1f%%, %5.1f%%] | %7.1f%% "
                "[%5.1f%%, %5.1f%%] | %9.1f %9.1f %9.1f %7.1fx %6d%s%s\n",
                row.program.c_str(), row.phases, 100.0 * row.mono_sdc,
                100.0 * row.mono_lo, 100.0 * row.mono_hi,
                100.0 * row.comp_sdc, 100.0 * row.comp_lo,
                100.0 * row.comp_hi, row.mono_ms, row.cold_ms,
                row.recheck_ms, row.speedup, row.cache_hits,
                recheck.phase_cache_misses > 0 ? "*" : "",
                row.overlap ? "" : "  DISJOINT");
  }

  std::printf("\nCI overlap on every kernel: %s\n",
              all_overlap ? "yes" : "NO — composition disagrees");
  std::printf("* = some phases re-injected: lock-order-dependent entry "
              "state (conservative, never stale)\n");
  std::printf("total bench wall-clock: %.1f s\n",
              ms_since(bench_start) / 1000.0);

  if (!json_path.empty()) {
    bench::JsonWriter json("bw_compositional");
    json.num("injections", injections);
    json.num("threads", threads);
    json.str("tier", vm::to_string(vm::resolve_tier(tier)));
    json.num("all_overlap", all_overlap ? 1 : 0);
    json.begin_rows();
    for (const Row& r : rows) {
      json.begin_row();
      json.str("program", r.program);
      json.num("phases", r.phases);
      json.real("mono_sdc", r.mono_sdc);
      json.real("mono_ci_lo", r.mono_lo);
      json.real("mono_ci_hi", r.mono_hi);
      json.real("comp_sdc", r.comp_sdc);
      json.real("comp_ci_lo", r.comp_lo);
      json.real("comp_ci_hi", r.comp_hi);
      json.real("mono_ms", r.mono_ms, 1);
      json.real("cold_ms", r.cold_ms, 1);
      json.real("recheck_ms", r.recheck_ms, 1);
      json.real("recheck_speedup", r.speedup, 1);
      json.num("phase_cache_hits", r.cache_hits);
      json.num("cached_injections", r.cached_injections);
      json.num("ci_overlap", r.overlap ? 1 : 0);
      json.end_row();
    }
    json.end_rows();
    if (!json.write(json_path)) return 1;
  }
  return all_overlap ? 0 : 1;
}
