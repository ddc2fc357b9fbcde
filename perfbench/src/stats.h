// Order statistics and error accounting shared by every workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples a percentile must leave beyond it before it counts as a
/// measurement rather than one of the few most extreme observations.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the p-th percentile among n samples:
/// ceil(p/100 · n), clamped to [1, n]. 0 when n is 0.
inline std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(rank < 1.0 ? 1 : static_cast<std::size_t>(rank), 1, n);
}

/// Nearest-rank percentile: the smallest sample with at least p% of all
/// samples at or below it. 0 for an empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

/// Samples ranked strictly beyond the p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

/// True when the p-th percentile of n samples leaves at least
/// kMinSamplesBeyond samples beyond it.
inline bool percentile_supported(std::size_t n, double p) {
  return n > 0 && samples_beyond(n, p) >= kMinSamplesBeyond;
}

/// Smallest sample count for which the p-th percentile is supported.
inline std::size_t min_samples_for(double p) {
  std::size_t n = kMinSamplesBeyond;
  while (!percentile_supported(n, p)) ++n;
  return n;
}

/// Operations with a wrong or missing verdict, as a percentage of the
/// operations attempted (every attempt counts, whatever its outcome).
inline double error_pct(std::uint64_t failed, std::uint64_t attempted) {
  if (attempted == 0) return 100.0;
  return 100.0 * static_cast<double>(failed) / static_cast<double>(attempted);
}

}  // namespace perfbench
