#ifndef MLPROV_SIMILARITY_S2JSD_LSH_H_
#define MLPROV_SIMILARITY_S2JSD_LSH_H_

#include <cstdint>
#include <vector>

namespace mlprov::similarity {

/// floor(x) as an integer, without a libm call: the LSH bucket index. NaN
/// and values outside the int64 range give INT64_MIN, which is what
/// converting std::floor(x) yields on x86-64.
inline int64_t FloorToInt64(double x) {
  if (!(x > -0x1p63 && x < 0x1p63)) return INT64_MIN;
  const auto t = static_cast<int64_t>(x);  // truncates toward zero
  return static_cast<double>(t) > x ? t - 1 : t;
}

/// Locality-sensitive hashing scheme for probability distributions,
/// following S2JSD-LSH (Mao et al., AAAI 2017), which the paper uses for
/// cheap feature-to-feature similarity (Appendix B). The scheme exploits
/// the fact that the square root of the Jensen-Shannon divergence is
/// closely approximated by an L2 metric over sqrt-transformed
/// distributions (Hellinger embedding), so a standard Euclidean
/// p-stable-LSH over the transformed vectors is locality sensitive for
/// S2JSD:
///     h(P) = floor((a . sqrt(P) + b) / r)
/// with a ~ N(0,1)^dim and b ~ U[0, r). `num_hashes` independent functions
/// are concatenated into one signature so collisions become selective.
class S2JsdLsh {
 public:
  struct Options {
    /// Dimensionality of the input distributions.
    int dim = 10;
    /// Bucket width r; smaller values are more selective.
    double bucket_width = 0.25;
    /// Number of concatenated hash functions.
    int num_hashes = 4;
    /// Seed for drawing the projection vectors (fixed per corpus so that
    /// hash values are comparable across spans).
    uint64_t seed = 0x51A5D2B1;
  };

  explicit S2JsdLsh(const Options& options);

  /// Hashes a distribution (need not be normalized; it is normalized
  /// internally, and padded/truncated to `dim`). Returns a combined 64-bit
  /// signature of the concatenated hash values.
  int64_t Hash(const std::vector<double>& distribution) const;

  /// The individual bucket indices of the `num_hashes` hash functions.
  /// Comparing two distributions by the *fraction* of matching buckets
  /// gives a soft similarity with much higher resolution than the
  /// all-or-nothing combined signature.
  std::vector<int64_t> HashVector(
      const std::vector<double>& distribution) const;

  /// The kernel behind Hash and HashVector: normalizes `distribution`
  /// (exactly `dim` entries) in place into its Hellinger embedding and
  /// writes the `num_hashes` bucket indices to `buckets`. Allocation-free.
  void Buckets(double* distribution, int64_t* buckets) const;

  /// Combines `num_hashes` bucket indices into Hash's signature.
  static int64_t Signature(const int64_t* buckets, int num_hashes);

  /// The approximated metric itself: sqrt of twice the Jensen-Shannon
  /// divergence between p and q (normalized internally, equal sizes
  /// enforced by padding). Exposed for tests and for exact comparisons.
  static double S2Jsd(const std::vector<double>& p,
                      const std::vector<double>& q);

  const Options& options() const { return options_; }

 private:
  Options options_;
  /// The num_hashes projection vectors, transposed: entry
  /// [i * num_hashes + h] is coordinate i of vector h, so one pass over
  /// the distribution feeds every hash's dot product.
  std::vector<double> projections_;
  std::vector<double> offsets_;
};

}  // namespace mlprov::similarity

#endif  // MLPROV_SIMILARITY_S2JSD_LSH_H_
