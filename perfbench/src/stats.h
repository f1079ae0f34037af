// Summary statistics used for every reported metric.
//
// Percentiles use the nearest-rank rule: the p-th percentile of n samples is
// the sample at 1-based rank ceil(p/100 * n) of the sorted list, so every
// reported value is a measured sample, never an interpolation. A tail
// percentile is only meaningful when enough samples lie beyond it:
// TailPercentile refuses one with fewer than kMinBeyondTail samples above its
// rank (p99 therefore needs at least 1000 samples).

#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

constexpr size_t kMinBeyondTail = 10;

// 1-based nearest rank of the p-th percentile among n samples (n > 0).
inline size_t NearestRank(double p, size_t n) {
  double exact = p / 100.0 * static_cast<double>(n);
  // Guard against 0.99 * 1000 = 989.9999... style rounding before ceil.
  auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

// Nearest-rank percentile; nullopt for an empty sample.
inline std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return std::nullopt;
  }
  size_t rank = NearestRank(p, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline std::optional<double> Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

// Samples strictly above the p-th percentile's rank.
inline size_t SamplesBeyond(double p, size_t n) {
  return n == 0 ? 0 : n - NearestRank(p, n);
}

// The p-th percentile, only when at least kMinBeyondTail samples lie beyond it.
inline std::optional<double> TailPercentile(std::vector<double> samples, double p) {
  if (SamplesBeyond(p, samples.size()) < kMinBeyondTail) {
    return std::nullopt;
  }
  return Percentile(std::move(samples), p);
}

// A total normalised by completed operations; nullopt when nothing completed
// (a per-op figure over zero operations is undefined, not zero).
inline std::optional<double> PerOp(double total, uint64_t completed_ops) {
  if (completed_ops == 0) {
    return std::nullopt;
  }
  return total / static_cast<double>(completed_ops);
}

// Ratio of two counters for share metrics; 0 when the denominator is 0 (the
// layer did no work of this kind).
inline double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
