// Shared timing loop of the overhead benches (bw_fig6_overhead,
// bw_fig7_scalability): the paper's ratio times the parallel section
// only, the "e2e" ratio the whole pipeline::execute() call (monitor
// start, the drain after the section, finalize and stop included).
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

#include "pipeline/pipeline.h"

namespace bw::bench {

struct Timing {
  double parallel_s = 0.0;
  double execute_s = 0.0;
};

/// Median seconds of `reps` runs of `config`: the parallel section, and
/// the whole execute() call.
inline Timing median_seconds(const pipeline::CompiledProgram& program,
                             const pipeline::ExecutionConfig& config,
                             int reps) {
  std::vector<double> parallel;
  std::vector<double> whole;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    whole.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    parallel.push_back(static_cast<double>(result.run.parallel_ns) * 1e-9);
  }
  std::sort(parallel.begin(), parallel.end());
  std::sort(whole.begin(), whole.end());
  return {parallel[parallel.size() / 2], whole[whole.size() / 2]};
}

}  // namespace bw::bench
