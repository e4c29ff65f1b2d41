#include "fault/duplication.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "support/diagnostics.h"
#include "support/prng.h"

namespace bw::fault {

DuplicationResult run_duplication(std::string_view source,
                                  const CampaignOptions& options) {
  DuplicationResult result;
  pipeline::PipelineOptions popts = options.pipeline;
  pipeline::CompiledProgram program =
      pipeline::compile_program(source, popts);
  GoldenRun golden = golden_run(program, options.num_threads);
  std::uint64_t budget = auto_instruction_budget(golden);

  support::SplitMixRng rng(options.seed);
  CampaignResult& c = result.campaign;

  for (int i = 0; i < options.injections; ++i) {
    unsigned thread =
        static_cast<unsigned>(rng.next_below(options.num_threads));
    std::uint64_t branches = golden.branches_per_thread[thread];
    if (branches == 0) {
      ++c.injected;
      continue;
    }
    pipeline::ExecutionConfig config;
    config.num_threads = options.num_threads;
    config.monitor = pipeline::MonitorMode::Off;
    config.instruction_budget = budget;
    config.fault.active = true;
    config.fault.thread = thread;
    config.fault.target_branch = 1 + rng.next_below(branches);
    config.fault.mode = options.type == FaultType::BranchFlip
                            ? vm::FaultPlan::Mode::BranchFlip
                            : vm::FaultPlan::Mode::CondBit;
    config.fault.bit = static_cast<unsigned>(rng.next_below(64));

    // Faulty replica; the clean replica's output is the golden output
    // (deterministic program), so no second execution is needed for the
    // comparison itself.
    pipeline::ExecutionResult faulty = pipeline::execute(program, config);
    ++c.injected;
    if (!faulty.run.fault_applied) continue;
    ++c.activated;

    if (faulty.run.crash) {
      ++c.crashed;
    } else if (faulty.run.hang) {
      ++c.hung;
    } else if (faulty.run.output == golden.output) {
      ++c.benign;
    } else {
      // Output divergence between replicas: duplication detects it at the
      // final compare. Never an SDC — this is duplication's strength.
      ++c.detected;
    }
  }

  result.overhead = duplication_overhead(source, options.num_threads);
  return result;
}

double duplication_overhead(std::string_view source, unsigned num_threads,
                            int repetitions) {
  pipeline::CompiledProgram program = pipeline::compile_program(source, {});

  auto run_once = [&]() {
    pipeline::ExecutionConfig config;
    config.num_threads = num_threads;
    config.monitor = pipeline::MonitorMode::Off;
    pipeline::execute(program, config);
  };
  // Both sides are timed over the same span (whole execute() calls) with
  // the same clock, so the ratio compares like with like.
  auto wall_ns = [](auto&& work) {
    const auto start = std::chrono::steady_clock::now();
    work();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  };

  // Warm-up, untimed: the first execute() decodes the program and faults
  // in fresh pages, a one-off cost that would land on the first single run.
  run_once();
  std::vector<double> ratios;
  for (int r = 0; r < repetitions; ++r) {
    const double single = wall_ns(run_once);
    // Two concurrent replicas contending for the same cores (the paper's
    // "twice the hardware resources" cost shows up as slowdown when the
    // machine is fully subscribed).
    const double dual = wall_ns([&] {
      std::thread replica(run_once);
      run_once();
      replica.join();
    });
    if (single > 0.0) ratios.push_back(dual / single);
  }
  if (ratios.empty()) return 0.0;
  // The median repetition: one preempted run on a shared host moves a
  // single ratio, not the result.
  auto mid = ratios.begin() + static_cast<std::ptrdiff_t>(ratios.size() / 2);
  std::nth_element(ratios.begin(), mid, ratios.end());
  return *mid;
}

}  // namespace bw::fault
