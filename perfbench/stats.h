// Small statistics helpers shared by the benchmark's phases.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// Quantile `q` of each of up to fifty consecutive windows of `values` (in
/// arrival order), each window keeping at least ten samples beyond `q`.
inline std::vector<double> WindowQuantiles(const std::vector<double>& values,
                                           double q) {
  const size_t per_window =
      static_cast<size_t>(std::ceil(10.0 / std::max(1e-9, 1.0 - q)));
  const size_t windows =
      std::clamp<size_t>(values.size() / per_window, 1, 50);
  std::vector<double> quantiles;
  const size_t n = values.size();
  for (size_t w = 0; w < windows; ++w) {
    quantiles.push_back(Quantile(
        std::vector<double>(values.begin() + w * n / windows,
                            values.begin() + (w + 1) * n / windows),
        q));
  }
  return quantiles;
}

/// Median over windows of the windows' quantile `q`: one stall of the host
/// moves one window, not the result.
inline double WindowedQuantile(const std::vector<double>& values, double q) {
  return Median(WindowQuantiles(values, q));
}

/// The tenth percentile over windows of the windows' quantile `q`: the
/// latency the server shows in its quieter stretches. On a shared
/// virtualized host, episodes of interference span most of some runs and
/// swing the median window by 10x; a phase with a single window reports
/// its plain quantile.
inline double QuietQuantile(const std::vector<double>& values, double q) {
  return Quantile(WindowQuantiles(values, q), 0.1);
}

inline double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

/// Quantile of observations counted in histogram buckets (`counts` per
/// bucket of `bounds`; the last bucket is the overflow). Interpolates
/// inside the bucket like obs::Histogram.
inline double BucketQuantile(const std::vector<double>& bounds,
                             const std::vector<uint64_t>& counts, double q) {
  uint64_t total = 0;
  for (uint64_t n : counts) total += n;
  if (total == 0) return 0.0;
  const double rank = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const uint64_t in_bucket = counts[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= rank) {
      if (i >= bounds.size()) return bounds.back();
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double fraction =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(in_bucket);
      return lo + (bounds[i] - lo) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
