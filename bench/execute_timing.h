// Shared timing loop of the overhead benches (bw_fig6_overhead,
// bw_fig7_scalability): the paper's ratio times the parallel section
// only, the "e2e" ratio the whole pipeline::execute() call (monitor
// start, the drain after the section, finalize and stop included).
//
// Each rep runs the baseline and the protected build back to back, the
// baseline first on even reps and the protected build first on odd ones,
// and yields one ratio per clock. Host load that drifts over a bench run
// then lands on both sides of every ratio, and the spread of the per-rep
// ratios shows how far one reading can be trusted.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "pipeline/pipeline.h"

namespace bw::bench {

/// Per-rep ratios, protected over baseline, for both clocks.
struct RatioSamples {
  std::vector<double> parallel;
  std::vector<double> execute;
};

/// Median and quartiles of a set of ratios.
struct Quartiles {
  double q1 = 1.0;
  double median = 1.0;
  double q3 = 1.0;
};

/// Linear-interpolated quartiles of `values`; all 1.0 when empty.
inline Quartiles quartiles(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

/// `reps` alternating pairs of runs: `baseline` under `base_config` and
/// `instrumented` under `protected_config`.
inline RatioSamples overhead_samples(
    const pipeline::CompiledProgram& baseline,
    const pipeline::ExecutionConfig& base_config,
    const pipeline::CompiledProgram& instrumented,
    const pipeline::ExecutionConfig& protected_config, int reps) {
  struct Run {
    double parallel_s = 0.0;
    double execute_s = 0.0;
  };
  auto time = [](const pipeline::CompiledProgram& program,
                 const pipeline::ExecutionConfig& config) {
    const auto start = std::chrono::steady_clock::now();
    const pipeline::ExecutionResult result = pipeline::execute(program, config);
    Run run;
    run.execute_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    run.parallel_s = static_cast<double>(result.run.parallel_ns) * 1e-9;
    return run;
  };
  auto ratio = [](double inst, double base) {
    return base > 0.0 ? inst / base : 1.0;
  };
  RatioSamples samples;
  for (int r = 0; r < reps; ++r) {
    Run base, inst;
    if (r % 2 == 0) {
      base = time(baseline, base_config);
      inst = time(instrumented, protected_config);
    } else {
      inst = time(instrumented, protected_config);
      base = time(baseline, base_config);
    }
    samples.parallel.push_back(ratio(inst.parallel_s, base.parallel_s));
    samples.execute.push_back(ratio(inst.execute_s, base.execute_s));
  }
  return samples;
}

/// The geometric mean across kernels, rep by rep: add each kernel's
/// per-rep ratios, then read one geomean per rep.
class RepGeomean {
 public:
  void add(const std::vector<double>& ratios) {
    if (log_sums_.empty()) log_sums_.assign(ratios.size(), 0.0);
    for (std::size_t r = 0; r < ratios.size(); ++r) {
      log_sums_[r] += std::log(ratios[r]);
    }
    ++count_;
  }
  std::vector<double> values() const {
    std::vector<double> out;
    for (double sum : log_sums_) {
      out.push_back(std::exp(sum / static_cast<double>(count_)));
    }
    return out;
  }

 private:
  std::vector<double> log_sums_;
  int count_ = 0;
};

}  // namespace bw::bench
