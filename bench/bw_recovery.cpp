// Recovery benchmark (DESIGN.md §4, "Detection-triggered recovery"):
// what barrier-aligned checkpointing costs when nothing goes wrong, and
// what it buys when something does.
//
// Part 1 — checkpoint overhead vs interval. Each benchmark runs clean
// (no faults) with recovery off and with checkpoints every 1, 2 and 4
// barrier generations; we report wall-clock overhead relative to the
// recovery-off run, plus checkpoint counts and bytes captured.
//
// Part 2 — detection-to-recovery conversion. A BranchFlip campaign per
// benchmark with recovery enabled: how many previously-detected runs now
// finish with golden output (recovery rate), the correct-output coverage,
// and the mean time spent inside checkpoint commits and restores.
//
//   usage: bw_recovery [threads] [injections] [repeats] [--json=<file>]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"

namespace {

using namespace bw;
using Clock = std::chrono::steady_clock;

struct CleanRun {
  double ms = 0;
  vm::RecoveryStats recovery;
};

CleanRun clean_run(const pipeline::CompiledProgram& program, unsigned threads,
                   unsigned interval, int repeats) {
  CleanRun best;
  for (int r = 0; r < repeats; ++r) {
    pipeline::ExecutionConfig config;
    config.num_threads = threads;
    config.monitor = pipeline::MonitorMode::Full;
    config.recovery.enabled = interval > 0;
    config.recovery.checkpoint_interval = interval > 0 ? interval : 1;
    const auto t0 = Clock::now();
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    if (!result.run.ok) {
      std::fprintf(stderr, "clean run failed\n");
      std::exit(1);
    }
    if (r == 0 || ms < best.ms) {
      best.ms = ms;
      best.recovery = result.recovery;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned threads = 4;
  int injections = 100;
  int repeats = 3;
  std::string json_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (positional == 0) {
      threads = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_recovery", "thread count", argv[i], 1, bench::kMaxThreads));
      ++positional;
    } else if (positional == 1) {
      injections = static_cast<int>(support::count_arg_or_exit(
          "bw_recovery", "injection count", argv[i], 1,
          bench::kMaxInjections));
      ++positional;
    } else {
      repeats = static_cast<int>(support::count_arg_or_exit(
          "bw_recovery", "repeat count", argv[i], 1, bench::kMaxReps));
      ++positional;
    }
  }

  std::printf("Recovery benchmark: %u threads, %d injections/kernel, "
              "best of %d clean repeats\n\n",
              threads, injections, repeats);

  struct OverheadRow {
    std::string benchmark;
    double off_ms, int1_ms, int2_ms, int4_ms;
    std::uint64_t checkpoints;
    double ckpt_kib;
  };
  std::vector<OverheadRow> overhead_rows;
  std::printf("Part 1: checkpoint overhead vs interval (clean runs)\n");
  std::printf("%-20s %9s | %9s %6s | %9s %6s | %9s %6s %6s %9s\n",
              "benchmark", "off ms", "int=1 ms", "ovh%", "int=2 ms", "ovh%",
              "int=4 ms", "ovh%", "ckpts", "KiB");
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench.source);
    CleanRun off = clean_run(program, threads, 0, repeats);
    std::printf("%-20s %9.2f |", bench.name.c_str(), off.ms);
    CleanRun last;
    double interval_ms[3] = {0, 0, 0};
    int idx = 0;
    for (unsigned interval : {1u, 2u, 4u}) {
      last = clean_run(program, threads, interval, repeats);
      interval_ms[idx++] = last.ms;
      std::printf(" %9.2f %5.1f%% |", last.ms,
                  off.ms > 0 ? 100.0 * (last.ms - off.ms) / off.ms : 0.0);
    }
    const double ckpt_kib =
        static_cast<double>(last.recovery.checkpoint_heap_words) * 8.0 /
        1024.0;
    // Checkpoint footprint at the densest interval=4 row just printed.
    std::printf(" %6llu %9.1f\n",
                static_cast<unsigned long long>(
                    last.recovery.checkpoints_taken),
                ckpt_kib);
    overhead_rows.push_back({bench.name, off.ms, interval_ms[0],
                             interval_ms[1], interval_ms[2],
                             last.recovery.checkpoints_taken, ckpt_kib});
  }

  struct CampaignRow {
    std::string benchmark;
    int detected, recovered, sdc, mismatch;
    double recovery_rate, coverage, coverage_with_recovery;
    double ckpt_us, restore_us;
  };
  std::vector<CampaignRow> campaign_rows;
  std::printf("\nPart 2: BranchFlip campaign with recovery "
              "(interval=1, retries=3, rollback lag=3)\n");
  std::printf("%-20s %5s %5s %5s %4s %5s %8s %8s | %9s %9s\n", "benchmark",
              "det", "rec", "SDC", "mis", "rate%", "cov%", "cov+rec%",
              "ckpt us", "restore us");
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    fault::CampaignOptions options;
    options.num_threads = threads;
    options.injections = injections;
    options.type = fault::FaultType::BranchFlip;
    options.protect = true;
    options.recovery.enabled = true;
    fault::CampaignResult r = fault::run_campaign(bench.source, options);
    const double ckpt_us =
        r.checkpoints ? static_cast<double>(r.checkpoint_ns) / r.checkpoints /
                            1000.0
                      : 0.0;
    const double restore_us =
        r.rollbacks
            ? static_cast<double>(r.restore_ns) / r.rollbacks / 1000.0
            : 0.0;
    std::printf("%-20s %5d %5d %5d %4d %5.1f %7.1f%% %7.1f%% | %9.1f %9.1f\n",
                bench.name.c_str(), r.detected, r.recovered, r.sdc,
                r.recovered_mismatch, 100.0 * r.recovery_rate(),
                100.0 * r.coverage(), 100.0 * r.coverage_with_recovery(),
                ckpt_us, restore_us);
    campaign_rows.push_back({bench.name, r.detected, r.recovered, r.sdc,
                             r.recovered_mismatch, r.recovery_rate(),
                             r.coverage(), r.coverage_with_recovery(),
                             ckpt_us, restore_us});
  }
  std::printf("\n(det = still detected-only after retries; rec = rolled "
              "back and finished with golden output; mis = "
              "recovered-with-wrong-output, must be 0; rate = rec/(rec+det); "
              "cov+rec = (benign+rec)/activated.)\n");
  if (!json_path.empty()) {
    bench::JsonWriter json("bw_recovery");
    json.num("threads", threads);
    json.num("injections", injections);
    json.num("repeats", repeats);
    json.begin_rows("overhead_rows");
    for (const OverheadRow& r : overhead_rows) {
      json.begin_row();
      json.str("benchmark", r.benchmark);
      json.real("off_ms", r.off_ms, 3);
      json.real("int1_ms", r.int1_ms, 3);
      json.real("int2_ms", r.int2_ms, 3);
      json.real("int4_ms", r.int4_ms, 3);
      json.num("checkpoints", r.checkpoints);
      json.real("ckpt_kib", r.ckpt_kib, 1);
      json.end_row();
    }
    json.end_rows();
    json.begin_rows("campaign_rows");
    for (const CampaignRow& r : campaign_rows) {
      json.begin_row();
      json.str("benchmark", r.benchmark);
      json.num("detected", r.detected);
      json.num("recovered", r.recovered);
      json.num("sdc", r.sdc);
      json.num("recovered_mismatch", r.mismatch);
      json.real("recovery_rate", r.recovery_rate);
      json.real("coverage", r.coverage);
      json.real("coverage_with_recovery", r.coverage_with_recovery);
      json.real("ckpt_us", r.ckpt_us, 1);
      json.real("restore_us", r.restore_us, 1);
      json.end_row();
    }
    json.end_rows();
    if (!json.write(json_path)) return 1;
  }
  return 0;
}
