#ifndef MLPROV_COMMON_STATS_H_
#define MLPROV_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace mlprov::common {

/// Streaming accumulator for count / mean / variance / min / max using
/// Welford's online algorithm. Cheap enough to embed in hot loops.
class RunningStats {
 public:
  void Add(double x);
  /// Merges another accumulator into this one (parallel-combine form).
  void Merge(const RunningStats& other);

  size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  double variance() const { return count_ > 1 ? m2_ / count_ : 0.0; }
  double stddev() const;
  double sum() const { return count_ ? mean_ * count_ : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Returns the q-quantile (q in [0,1]) of `values` using linear
/// interpolation between order statistics. Sorts a copy; O(n log n).
/// Returns 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// Returns the arithmetic mean; 0 for empty input.
double Mean(const std::vector<double>& values);

/// Returns the sample median; 0 for empty input.
double Median(const std::vector<double>& values);

/// Pearson correlation of two equal-length vectors; 0 if degenerate.
double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y);

}  // namespace mlprov::common

#endif  // MLPROV_COMMON_STATS_H_
