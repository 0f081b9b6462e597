#ifndef MLPROV_DATASPAN_FEATURE_STATS_H_
#define MLPROV_DATASPAN_FEATURE_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace mlprov::dataspan {

/// Number of equi-width bins recorded for a numerical feature (Appendix B:
/// "the discrete distribution of the feature values over 10 equi-width
/// bins, with the range rescaled to [0, 1]").
inline constexpr int kNumericBins = 10;
/// Number of most-frequent terms recorded for a categorical feature.
inline constexpr int kTopTerms = 10;

enum class FeatureKind : uint8_t {
  kNumerical = 0,
  kCategorical = 1,
};

/// The fixed part of re-binning a feature's statistics into `out_bins`
/// equal-width bins over [0,1]: the bin width, and for each recorded
/// numeric bin the output bins it overlaps, by how much, and its own
/// width. These depend only on `out_bins`, so a hasher that converts every
/// feature to the same width builds them once; a numeric feature then
/// costs one `(mass * overlap) / width` per term, the expression the
/// direct computation evaluates.
class Rebinning {
 public:
  explicit Rebinning(int out_bins);

  int out_bins() const { return out_bins_; }
  /// 1.0 / out_bins.
  double bin_width() const { return bin_width_; }

  /// Adds `mass`, uniform over recorded numeric bin `bin`, to `out`
  /// (out_bins() entries). Non-positive mass adds nothing.
  void SpreadNumeric(int bin, double mass, double* out) const;

 private:
  struct Term {
    int out_bin = 0;
    double overlap = 0.0;
  };
  int out_bins_;
  double bin_width_;
  std::array<double, kNumericBins> width_ = {};
  /// Terms of recorded bin i: [begin_[i], begin_[i + 1]).
  std::array<size_t, kNumericBins + 1> begin_ = {};
  std::vector<Term> terms_;
};

/// Privacy-preserving summary statistics for one feature of one data span,
/// exactly in the shape the paper's corpus records (Appendix B). Raw values
/// and term strings are never stored; terms are anonymized to hashes.
struct FeatureStats {
  /// Feature name. Anonymized in the real corpus, but name *equality*
  /// across spans of the same pipeline is preserved, which is all Eq. (2)
  /// uses.
  std::string name;
  FeatureKind kind = FeatureKind::kNumerical;

  // --- Numerical features ---
  /// Histogram over 10 equi-width bins of the [0,1]-rescaled value range.
  /// Counts, not frequencies; normalization happens in the similarity code.
  std::array<double, kNumericBins> bins = {};

  // --- Categorical features ---
  /// Counts of the top-10 most frequent (anonymized) terms, descending.
  std::array<double, kTopTerms> top_term_counts = {};
  /// Total number of unique terms in the domain (the paper reports a mean
  /// of ~10.6 million for production pipelines).
  int64_t unique_terms = 0;
  /// Total number of datapoints in the span.
  int64_t total_count = 0;

  /// Converts the recorded statistics into a discrete probability
  /// distribution over [0,1] as prescribed by Appendix B:
  ///  - numerical: normalized bin counts (10 bins);
  ///  - categorical: normalized top-10 term frequencies sorted descending,
  ///    with the remaining mass spread evenly over the other unique_terms-10
  ///    "bins", then re-binned to `out_bins` equal-width buckets over [0,1]
  ///    (bin width 1/unique_terms per term).
  /// Returns a distribution with `out_bins` entries summing to 1 (or all
  /// zeros if the feature is empty).
  std::vector<double> ToDistribution(int out_bins = kNumericBins) const;

  /// Same distribution, written to `out` (rebinning.out_bins() entries)
  /// without allocating; bit-identical to the overload above.
  void ToDistribution(const Rebinning& rebinning, double* out) const;

  /// True if the feature recorded no data.
  bool Empty() const;
};

}  // namespace mlprov::dataspan

#endif  // MLPROV_DATASPAN_FEATURE_STATS_H_
