// Sampled monitoring: the coverage-vs-overhead curve. Sweeps the
// deterministic sampling rate (off, 1-in-1, 1-in-4, 1-in-16, 1-in-64)
// against the two application fault models (uniform branch-flip and the
// adversarial targeted-flip) on the request-processing service kernels,
// and measures three things per cell:
//
//   * overhead  — median parallel-section time of a fully-checked clean
//                 run at that rate, normalized to the uninstrumented
//                 baseline (rate "off" is the no-sampling monitor, the
//                 Figure 6 configuration with checks on);
//   * coverage  — campaign detection coverage with Wilson 95% CI;
//   * false alarms — violations flagged across `reps` clean runs at that
//                 rate (must be 0 at EVERY rate: sampling only ever skips
//                 whole instances, so it cannot manufacture divergence).
//
// The monotone story this prints is the PR's thesis: rate 1 reproduces
// full checking exactly, higher rates buy overhead down at a measured
// coverage cost against uniform flips, and the targeted adversary (which
// re-flips one chosen branch) is caught even at coarse rates because
// repeated flips keep landing on checked instances.
//
//   usage: bw_sampling [injections] [reps] [--threads=N] [--workers=N]
//          [--flips=N] [--json=<file>]
#include <algorithm>
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

double median_parallel_seconds(const pipeline::CompiledProgram& program,
                               unsigned threads, pipeline::MonitorMode mode,
                               const runtime::SamplingOptions& sampling,
                               int reps, std::uint64_t* violations) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    pipeline::ExecutionConfig config;
    config.num_threads = threads;
    config.monitor = mode;
    config.stop_on_detection = false;
    config.monitor_options.sampling = sampling;
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    times.push_back(static_cast<double>(result.run.parallel_ns) * 1e-9);
    if (violations != nullptr) *violations += result.violations.size();
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Row {
  std::string kernel;
  const char* fault;
  std::uint32_t rate;  // 0 = sampling off
  double coverage, ci_lo, ci_hi, overhead;
  int detected, sdc, activated;
  std::uint64_t clean_violations;
};

}  // namespace

int main(int argc, char** argv) {
  int injections = 120;
  int reps = 3;
  unsigned threads = 4;
  unsigned workers = 0;
  unsigned flips = 4;
  std::string json_path;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_sampling", "--threads", argv[i] + 10, 1, bench::kMaxThreads));
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_sampling", "--workers", argv[i] + 10, 0, bench::kMaxThreads));
    } else if (std::strncmp(argv[i], "--flips=", 8) == 0) {
      flips = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_sampling", "--flips", argv[i] + 8, 0, bench::kMaxInjections));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (positional++ == 0) {
      injections = static_cast<int>(support::count_arg_or_exit(
          "bw_sampling", "injection count", argv[i], 1,
          bench::kMaxInjections));
    } else {
      reps = static_cast<int>(support::count_arg_or_exit(
          "bw_sampling", "rep count", argv[i], 1, bench::kMaxReps));
    }
  }

  const std::uint32_t kRates[] = {0, 1, 4, 16, 64};
  const fault::FaultType kFaults[] = {fault::FaultType::BranchFlip,
                                      fault::FaultType::TargetedFlip};

  std::printf("Sampled monitoring: coverage vs overhead "
              "(%d injections/cell, %u threads, targeted budget %u "
              "flips)\n\n",
              injections, threads, flips);
  std::vector<Row> rows;
  for (const benchmarks::Benchmark& bench :
       benchmarks::service_benchmarks()) {
    pipeline::CompiledProgram baseline =
        pipeline::compile_program(bench.source);
    pipeline::CompiledProgram protected_program =
        pipeline::protect_program(bench.source);
    const double base = median_parallel_seconds(
        baseline, threads, pipeline::MonitorMode::Off, {}, reps, nullptr);

    std::printf("--- %s ---\n", bench.paper_name.c_str());
    std::printf("%-8s %-14s %10s %17s %9s %7s\n", "rate", "fault",
                "coverage", "95% CI", "overhead", "alarms");
    for (std::uint32_t rate : kRates) {
      runtime::SamplingOptions sampling;
      sampling.forced_rate = rate;  // 0 leaves the controller inactive

      // Overhead + clean false alarms at this rate (fault-independent).
      std::uint64_t clean_violations = 0;
      const double checked = median_parallel_seconds(
          protected_program, threads, pipeline::MonitorMode::Full, sampling,
          reps, &clean_violations);
      const double overhead = base > 0.0 ? checked / base : 1.0;

      for (fault::FaultType type : kFaults) {
        fault::CampaignOptions options;
        options.num_threads = threads;
        options.injections = injections;
        options.type = type;
        options.seed = 0x5A3'D000 + rate;
        options.campaign_workers = workers;
        options.targeted_flips = flips;
        options.monitor.sampling = sampling;
        fault::CampaignResult r = fault::run_campaign(bench.source, options);
        fault::ConfidenceInterval ci = r.coverage_interval();

        char rate_label[16];
        if (rate == 0) {
          std::snprintf(rate_label, sizeof(rate_label), "off");
        } else {
          std::snprintf(rate_label, sizeof(rate_label), "1-in-%u", rate);
        }
        std::printf("%-8s %-14s %9.1f%% [%5.1f%%, %5.1f%%] %8.2fx %7llu\n",
                    rate_label, fault::to_string(type), 100.0 * r.coverage(),
                    100.0 * ci.lo, 100.0 * ci.hi, overhead,
                    static_cast<unsigned long long>(clean_violations));
        rows.push_back({bench.name, fault::to_string(type), rate,
                        r.coverage(), ci.lo, ci.hi, overhead, r.detected,
                        r.sdc, r.activated, clean_violations});
      }
    }
    std::printf("\n");
  }

  std::uint64_t total_alarms = 0;
  for (const Row& r : rows) total_alarms += r.clean_violations;
  std::printf("clean-run false alarms across all rates: %llu (expected 0)\n",
              static_cast<unsigned long long>(total_alarms));

  if (!json_path.empty()) {
    bench::JsonWriter json("bw_sampling");
    json.num("injections", injections);
    json.num("threads", threads);
    json.num("targeted_flips", flips);
    json.begin_rows();
    for (const Row& r : rows) {
      json.begin_row();
      json.str("kernel", r.kernel);
      json.str("fault", r.fault);
      json.num("rate", r.rate);
      json.real("coverage", r.coverage);
      json.real("ci_lo", r.ci_lo);
      json.real("ci_hi", r.ci_hi);
      json.real("overhead", r.overhead);
      json.num("detected", r.detected);
      json.num("sdc", r.sdc);
      json.num("activated", r.activated);
      json.num("clean_violations", r.clean_violations);
      json.end_row();
    }
    json.end_rows();
    if (!json.write(json_path)) return 1;
  }
  return total_alarms == 0 ? 0 : 1;
}
