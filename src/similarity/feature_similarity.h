#ifndef MLPROV_SIMILARITY_FEATURE_SIMILARITY_H_
#define MLPROV_SIMILARITY_FEATURE_SIMILARITY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataspan/feature_stats.h"
#include "similarity/s2jsd_lsh.h"

namespace mlprov::similarity {

/// Configuration of the Appendix B feature similarity (Eq. 2):
///   s(f1, f2) = alpha * I(h(f1) = h(f2)) + beta * I(name1 = name2)
/// with cross-kind similarity fixed at 0. alpha + beta should be 1 so
/// that s, and the derived span similarity, stay in [0, 1].
struct FeatureSimilarityOptions {
  double alpha = 0.6;
  double beta = 0.4;
  /// When true, the hash-equality indicator is replaced by the fraction
  /// of the individual LSH functions whose buckets match — a soft,
  /// higher-resolution similarity used for predictive features.
  bool soft_hash = false;
  S2JsdLsh::Options lsh;
};

/// Computes Eq. 2 similarities between features, with the LSH hash as the
/// distribution-equality surrogate. Stateless aside from the fixed hash
/// functions; safe to share across threads for reads.
class FeatureSimilarity {
 public:
  explicit FeatureSimilarity(const FeatureSimilarityOptions& options);

  /// Writes the `lsh.num_hashes` bucket indices of f's recorded
  /// distribution to `buckets`, using `scratch` (`lsh.dim` doubles). The
  /// one hashing path: Hash, HashVector and span sketches all run it.
  /// Allocation-free.
  void Buckets(const dataspan::FeatureStats& f, double* scratch,
               int64_t* buckets) const;

  /// The LSH signature of a feature's recorded distribution.
  int64_t Hash(const dataspan::FeatureStats& f) const;
  /// Per-hash bucket indices (soft-similarity mode).
  std::vector<int64_t> HashVector(const dataspan::FeatureStats& f) const;

  /// Eq. 2 on precomputed hashes. Returns 0 for cross-kind pairs.
  double Similarity(const dataspan::FeatureStats& f1, int64_t hash1,
                    const dataspan::FeatureStats& f2, int64_t hash2) const;

  /// Soft variant on precomputed hash vectors: the indicator is replaced
  /// by the matching-bucket fraction.
  double SoftSimilarity(const dataspan::FeatureStats& f1,
                        const std::vector<int64_t>& hashes1,
                        const dataspan::FeatureStats& f2,
                        const std::vector<int64_t>& hashes2) const;

  /// The soft variant for two same-kind features given as `n` bucket
  /// indices each and whether their names are equal.
  double SoftSimilarity(const int64_t* buckets1, const int64_t* buckets2,
                        size_t n, bool same_name) const;

  /// Convenience overload that hashes internally.
  double Similarity(const dataspan::FeatureStats& f1,
                    const dataspan::FeatureStats& f2) const;

  const FeatureSimilarityOptions& options() const { return options_; }

 private:
  FeatureSimilarityOptions options_;
  S2JsdLsh lsh_;
  dataspan::Rebinning rebinning_;
};

}  // namespace mlprov::similarity

#endif  // MLPROV_SIMILARITY_FEATURE_SIMILARITY_H_
