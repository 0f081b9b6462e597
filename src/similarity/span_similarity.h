#ifndef MLPROV_SIMILARITY_SPAN_SIMILARITY_H_
#define MLPROV_SIMILARITY_SPAN_SIMILARITY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dataspan/span_stats.h"
#include "similarity/feature_similarity.h"

namespace mlprov::similarity {

/// Jaccard similarity |A ∩ B| / |A ∪ B| between two id sets (Section
/// 4.2.1's data-span reuse metric). Inputs may be unsorted and may contain
/// duplicates (deduplicated internally). Two empty sets have similarity 0.
double JaccardSimilarity(std::vector<int64_t> a, std::vector<int64_t> b);

/// The same on sets given sorted ascending without duplicates.
double SortedJaccardSimilarity(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b);

/// Appendix B dataset similarity, layered over FeatureSimilarity:
///  - span-pair similarity S(D1, D2): EMD over the feature sets with
///    equal cluster weights and ground distance 1 - s(f_i, f_j), reported
///    as a similarity (1 - EMD). S(D, D) = 1 when alpha + beta = 1 and
///    S(empty, D) = 0.
///  - sequence similarity (Eq. 3): spans aligned by ordinal position,
///    sum of pairwise similarities / max(n, m).
///  - bipartite alternative: max-weight matching of spans instead of
///    ordinal alignment, normalized the same way.
/// The calculator sketches each span once, on its first comparison, and
/// memoizes span-pair values, both by caller-provided span keys (artifact
/// ids): rolling windows re-compare the same spans and span pairs.
class SpanSimilarityCalculator {
 public:
  explicit SpanSimilarityCalculator(const FeatureSimilarityOptions& options);

  /// Span-pair similarity in [0,1] (uncached).
  double SpanPairSimilarity(const dataspan::SpanStats& a,
                            const dataspan::SpanStats& b) const;

  /// Cached variant; `key_a`/`key_b` must uniquely identify the spans
  /// (e.g. their artifact ids). The cache is symmetric: the value is
  /// computed with the lower key's span first, so (a, b) and (b, a) give
  /// the same bits whichever is asked first.
  double SpanPairSimilarityCached(int64_t key_a,
                                  const dataspan::SpanStats& a,
                                  int64_t key_b,
                                  const dataspan::SpanStats& b);

  /// Positional variant: features are matched by their index in the span
  /// (spans of one pipeline share a stable schema order), avoiding the
  /// EMD's cross-feature matches. Mean Eq.-2 similarity over the common
  /// prefix, normalized by the longer feature list. Cached like the EMD
  /// variant; the metric is part of the cache key.
  double PositionalSimilarityCached(int64_t key_a,
                                    const dataspan::SpanStats& a,
                                    int64_t key_b,
                                    const dataspan::SpanStats& b);

  /// Eq. 3 sequence similarity. Spans are compared positionally; the
  /// `keys` vectors, parallel to the spans, enable caching. When
  /// `positional_features` is true the span-pair metric matches features
  /// by index instead of solving the EMD.
  double SequenceSimilarity(const std::vector<const dataspan::SpanStats*>& a,
                            const std::vector<int64_t>& keys_a,
                            const std::vector<const dataspan::SpanStats*>& b,
                            const std::vector<int64_t>& keys_b,
                            bool positional_features = false);

  /// Alternative metric: optimal bipartite matching of spans by pair
  /// similarity, normalized by max(n, m).
  double BipartiteSimilarity(const std::vector<const dataspan::SpanStats*>& a,
                             const std::vector<int64_t>& keys_a,
                             const std::vector<const dataspan::SpanStats*>& b,
                             const std::vector<int64_t>& keys_b);

  size_t cache_size() const { return pair_cache_.size(); }
  void ClearCache();

 private:
  /// One span's features sketched for comparison (DESIGN.md "Span
  /// sketches"): per feature, `stride_` contiguous words — kind, 64-bit
  /// name hash, LSH signature, then the num_hashes bucket indices.
  using Sketch = std::vector<int64_t>;
  static constexpr size_t kKind = 0;
  static constexpr size_t kNameHash = 1;
  static constexpr size_t kSignature = 2;
  static constexpr size_t kBuckets = 3;

  enum class Metric : uint8_t { kEmd, kPositional };
  /// A cached pair: the two span keys, ordered, and the metric.
  struct PairKey {
    int64_t lo = 0;
    int64_t hi = 0;
    Metric metric = Metric::kEmd;
    bool operator==(const PairKey&) const = default;
  };
  struct PairKeyHash {
    size_t operator()(const PairKey& key) const noexcept;
  };
  double Cached(int64_t key_a, const dataspan::SpanStats& a, int64_t key_b,
                const dataspan::SpanStats& b, Metric metric);

  /// Writes `span`'s sketch to `out`; `scratch` holds lsh.dim doubles.
  void BuildSketch(const dataspan::SpanStats& span, double* scratch,
                   Sketch* out) const;
  /// The span's sketch, built on first request and kept by span key.
  const Sketch& SketchFor(int64_t key, const dataspan::SpanStats& span);
  double EmdSimilarity(const dataspan::SpanStats& a, const Sketch& sa,
                       const dataspan::SpanStats& b, const Sketch& sb) const;
  /// For two non-empty spans.
  double PositionalSimilarity(const dataspan::SpanStats& a,
                              const Sketch& sa,
                              const dataspan::SpanStats& b,
                              const Sketch& sb) const;

  FeatureSimilarity feature_similarity_;
  size_t stride_;
  std::vector<double> scratch_;
  std::unordered_map<int64_t, Sketch> sketches_;
  std::unordered_map<PairKey, double, PairKeyHash> pair_cache_;
};

}  // namespace mlprov::similarity

#endif  // MLPROV_SIMILARITY_SPAN_SIMILARITY_H_
