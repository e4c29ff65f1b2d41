#include "benchmarks/registry.h"

namespace bw::benchmarks {

const std::vector<Benchmark>& all_benchmarks() {
  // Paper reference data: Table IV (LOC / branch counts) and Table V
  // (category percentages of parallel-section branches).
  static const std::vector<Benchmark> benchmarks = {
      {"ocean_contig", "continuous ocean", ocean_contig_source(),
       {5329, 4217, 876, 785, 4.0, 2.0, 92.0, 2.0}, 32},
      {"fft", "FFT", fft_source(),
       {1086, 561, 110, 44, 32.0, 25.0, 41.0, 2.0}, 32},
      {"fmm", "FMM", fmm_source(),
       {4772, 3246, 395, 321, 16.0, 2.0, 31.0, 51.0}, 32},
      {"ocean_noncontig", "noncontinuous ocean", ocean_noncontig_source(),
       {3549, 2487, 543, 478, 5.0, 24.0, 69.0, 2.0}, 32},
      {"radix", "radix", radix_source(),
       {1112, 441, 99, 35, 31.0, 26.0, 20.0, 23.0}, 32},
      {"raytrace", "raytrace", raytrace_source(),
       {10861, 7709, 726, 268, 4.0, 1.0, 44.0, 51.0}, 32},
      {"water_nsq", "water-nsquared", water_nsq_source(),
       {2564, 1474, 144, 103, 33.0, 12.0, 25.0, 30.0}, 32},
  };
  return benchmarks;
}

const std::vector<Benchmark>& service_benchmarks() {
  static const std::vector<Benchmark> benchmarks = {
      {"auth_check", "auth-check", auth_check_source(), {}, 32},
      {"dispatch", "dispatch", dispatch_source(), {}, 32},
  };
  return benchmarks;
}

const std::vector<Benchmark>& diagnostic_benchmarks() {
  static const std::vector<Benchmark> benchmarks = {
      {"racy_sum", "racy-sum", racy_sum_source(), {}, 32},
      {"racy_guard", "racy-guard", racy_guard_source(), {}, 32},
      {"racy_flag", "racy-flag", racy_flag_source(), {}, 32},
  };
  return benchmarks;
}

const Benchmark* find_benchmark(std::string_view name) {
  for (const Benchmark& b : all_benchmarks()) {
    if (b.name == name) return &b;
  }
  for (const Benchmark& b : service_benchmarks()) {
    if (b.name == name) return &b;
  }
  for (const Benchmark& b : diagnostic_benchmarks()) {
    if (b.name == name) return &b;
  }
  return nullptr;
}

}  // namespace bw::benchmarks
