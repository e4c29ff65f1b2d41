// Order statistics shared by every workload: nearest-rank percentiles,
// geometric means over kernels, and the sample-count rule for tail
// percentiles (a reported tail must have at least ten samples beyond it).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace bwperf {

/// Samples a tail percentile must have strictly beyond it to be reported.
inline constexpr std::size_t kTailSamples = 10;

/// 1-based nearest rank of quantile q in n samples: the smallest rank whose
/// sample has at least q of the samples at or below it.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  // The epsilon keeps q*n on the exact product (0.9 * 100 must be rank 90).
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

/// Nearest-rank percentile; 0 for no samples.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::size_t index = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

/// Samples that lie strictly beyond the q-percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

/// The fewest samples for which the q-percentile has `beyond` samples past
/// it (100 for p90 with ten beyond).
inline std::size_t samples_for_tail(double q, std::size_t beyond = kTailSamples) {
  std::size_t n = beyond;
  while (samples_beyond(n, q) < beyond) ++n;
  return n;
}

/// Geometric mean of positive values; 0 when there are none.
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Interquartile mean: the mean of the samples between the first and the
/// third quartile. Unlike the median it moves smoothly when a bimodal
/// distribution shifts weight between its modes; unlike the mean it
/// ignores the tail.
inline double interquartile_mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t lo = samples.size() / 4;
  const std::size_t hi = samples.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += samples[i];
  return sum / static_cast<double>(hi - lo);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace bwperf
