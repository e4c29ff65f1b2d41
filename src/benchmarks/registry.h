// The seven SPLASH-2-modeled BW-C benchmark kernels used by the evaluation
// harnesses (paper Section IV, Table IV). Each kernel is embedded as BW-C
// source and carries the paper's reference numbers for side-by-side
// reporting in the Table IV/V benches.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace bw::benchmarks {

/// Paper Table IV/V reference rows (percentages of parallel-section
/// branches per similarity category).
struct PaperReference {
  int total_loc = 0;
  int parallel_loc = 0;
  int total_branches = 0;
  int parallel_branches = 0;
  double shared_pct = 0.0;
  double threadid_pct = 0.0;
  double partial_pct = 0.0;
  double none_pct = 0.0;
};

struct Benchmark {
  std::string name;        // registry key, e.g. "fft"
  std::string paper_name;  // display name, e.g. "FFT"
  const char* source;      // BW-C program
  PaperReference paper;
  /// Largest thread count the default problem size supports.
  unsigned max_threads = 32;
};

const std::vector<Benchmark>& all_benchmarks();
/// Request-processing service kernels (auth-check, dispatch loop) used by
/// the sampled-monitoring evaluation. Kept out of all_benchmarks() so the
/// Table IV/V harnesses keep reporting exactly the paper's seven SPLASH-2
/// rows; their PaperReference fields are zeroed (no paper counterpart).
const std::vector<Benchmark>& service_benchmarks();
/// Deliberately racy diagnostic kernels (racy_sum, racy_guard, racy_flag)
/// for the race checker's findings side. Resolvable through
/// find_benchmark() but never enumerated, so evaluation harnesses cannot
/// pick them up.
const std::vector<Benchmark>& diagnostic_benchmarks();
/// Looks up `name` in all_benchmarks(), then service_benchmarks(), then
/// diagnostic_benchmarks().
const Benchmark* find_benchmark(std::string_view name);

// Raw sources (defined one per translation unit).
const char* fft_source();
const char* radix_source();
const char* ocean_contig_source();
const char* ocean_noncontig_source();
const char* water_nsq_source();
const char* fmm_source();
const char* raytrace_source();
const char* auth_check_source();
const char* dispatch_source();
const char* racy_sum_source();
const char* racy_guard_source();
const char* racy_flag_source();

}  // namespace bw::benchmarks
