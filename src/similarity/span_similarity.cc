#include "similarity/span_similarity.h"

#include <algorithm>
#include <string>

#include "similarity/emd.h"

namespace mlprov::similarity {

double JaccardSimilarity(std::vector<int64_t> a, std::vector<int64_t> b) {
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return SortedJaccardSimilarity(a, b);
}

double SortedJaccardSimilarity(const std::vector<int64_t>& a,
                               const std::vector<int64_t>& b) {
  if (a.empty() && b.empty()) return 0.0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

namespace {

/// FNV-1a over the name's bytes.
int64_t NameHash(const std::string& name) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (const unsigned char c : name) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return static_cast<int64_t>(h);
}

}  // namespace

SpanSimilarityCalculator::SpanSimilarityCalculator(
    const FeatureSimilarityOptions& options)
    : feature_similarity_(options),
      stride_(kBuckets + static_cast<size_t>(options.lsh.num_hashes)),
      scratch_(static_cast<size_t>(options.lsh.dim)) {}

void SpanSimilarityCalculator::ClearCache() {
  sketches_.clear();
  pair_cache_.clear();
}

size_t SpanSimilarityCalculator::PairKeyHash::operator()(
    const PairKey& key) const noexcept {
  uint64_t h = static_cast<uint64_t>(key.lo) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<uint64_t>(key.hi) + 0x7F4A7C159E3779B9ull + (h << 6) +
       (h >> 2);
  return static_cast<size_t>(h ^ static_cast<uint64_t>(key.metric));
}

void SpanSimilarityCalculator::BuildSketch(const dataspan::SpanStats& span,
                                           double* scratch,
                                           Sketch* out) const {
  const int num_hashes = static_cast<int>(stride_ - kBuckets);
  out->resize(span.features.size() * stride_);
  int64_t* words = out->data();
  for (const dataspan::FeatureStats& f : span.features) {
    words[kKind] = static_cast<int64_t>(f.kind);
    words[kNameHash] = NameHash(f.name);
    feature_similarity_.Buckets(f, scratch, words + kBuckets);
    words[kSignature] = S2JsdLsh::Signature(words + kBuckets, num_hashes);
    words += stride_;
  }
}

const SpanSimilarityCalculator::Sketch& SpanSimilarityCalculator::SketchFor(
    int64_t key, const dataspan::SpanStats& span) {
  auto [it, inserted] = sketches_.try_emplace(key);
  if (inserted) BuildSketch(span, scratch_.data(), &it->second);
  return it->second;
}

double SpanSimilarityCalculator::EmdSimilarity(
    const dataspan::SpanStats& a, const Sketch& sa,
    const dataspan::SpanStats& b, const Sketch& sb) const {
  if (a.features.empty() || b.features.empty()) return 0.0;
  const std::vector<double> supply(a.features.size(), 1.0);
  const std::vector<double> demand(b.features.size(), 1.0);
  const double emd = EarthMoversDistance(
      supply, demand, [&](size_t i, size_t j) {
        return 1.0 - feature_similarity_.Similarity(
                         a.features[i], sa[i * stride_ + kSignature],
                         b.features[j], sb[j * stride_ + kSignature]);
      });
  return std::clamp(1.0 - emd, 0.0, 1.0);
}

double SpanSimilarityCalculator::PositionalSimilarity(
    const dataspan::SpanStats& a, const Sketch& sa,
    const dataspan::SpanStats& b, const Sketch& sb) const {
  const size_t common = std::min(a.features.size(), b.features.size());
  const bool soft = feature_similarity_.options().soft_hash;
  const size_t num_hashes = stride_ - kBuckets;
  const int64_t* x = sa.data();
  const int64_t* y = sb.data();
  double total = 0.0;
  for (size_t i = 0; i < common; ++i, x += stride_, y += stride_) {
    if (x[kKind] != y[kKind]) continue;  // cross-kind pairs score 0
    if (soft) {
      // Equal name hashes are confirmed by comparing the names.
      const bool same_name = x[kNameHash] == y[kNameHash] &&
                             a.features[i].name == b.features[i].name;
      total += feature_similarity_.SoftSimilarity(
          x + kBuckets, y + kBuckets, num_hashes, same_name);
    } else {
      total += feature_similarity_.Similarity(
          a.features[i], x[kSignature], b.features[i], y[kSignature]);
    }
  }
  return total / static_cast<double>(
                     std::max(a.features.size(), b.features.size()));
}

double SpanSimilarityCalculator::SpanPairSimilarity(
    const dataspan::SpanStats& a, const dataspan::SpanStats& b) const {
  std::vector<double> scratch(scratch_.size());
  Sketch sa, sb;
  BuildSketch(a, scratch.data(), &sa);
  BuildSketch(b, scratch.data(), &sb);
  return EmdSimilarity(a, sa, b, sb);
}

double SpanSimilarityCalculator::Cached(int64_t key_a,
                                        const dataspan::SpanStats& a,
                                        int64_t key_b,
                                        const dataspan::SpanStats& b,
                                        Metric metric) {
  // Symmetric: the span keys are ordered, and the value is computed in
  // key order. The EMD is not bitwise symmetric, so computing in the
  // caller's order would cache whichever orientation came first.
  if (key_b < key_a) return Cached(key_b, b, key_a, a, metric);
  const PairKey key = {key_a, key_b, metric};
  if (auto it = pair_cache_.find(key); it != pair_cache_.end()) {
    return it->second;
  }
  double value = 0.0;
  if (!a.features.empty() && !b.features.empty()) {
    const Sketch& sa = SketchFor(key_a, a);
    const Sketch& sb = SketchFor(key_b, b);
    value = metric == Metric::kEmd ? EmdSimilarity(a, sa, b, sb)
                                   : PositionalSimilarity(a, sa, b, sb);
  }
  pair_cache_.emplace(key, value);
  return value;
}

double SpanSimilarityCalculator::SpanPairSimilarityCached(
    int64_t key_a, const dataspan::SpanStats& a, int64_t key_b,
    const dataspan::SpanStats& b) {
  return Cached(key_a, a, key_b, b, Metric::kEmd);
}

double SpanSimilarityCalculator::PositionalSimilarityCached(
    int64_t key_a, const dataspan::SpanStats& a, int64_t key_b,
    const dataspan::SpanStats& b) {
  return Cached(key_a, a, key_b, b, Metric::kPositional);
}

double SpanSimilarityCalculator::SequenceSimilarity(
    const std::vector<const dataspan::SpanStats*>& a,
    const std::vector<int64_t>& keys_a,
    const std::vector<const dataspan::SpanStats*>& b,
    const std::vector<int64_t>& keys_b, bool positional_features) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  const size_t common = std::min(n, m);
  double total = 0.0;
  for (size_t i = 0; i < common; ++i) {
    total += positional_features
                 ? PositionalSimilarityCached(keys_a[i], *a[i], keys_b[i],
                                              *b[i])
                 : SpanPairSimilarityCached(keys_a[i], *a[i], keys_b[i],
                                            *b[i]);
  }
  return total / static_cast<double>(std::max(n, m));
}

double SpanSimilarityCalculator::BipartiteSimilarity(
    const std::vector<const dataspan::SpanStats*>& a,
    const std::vector<int64_t>& keys_a,
    const std::vector<const dataspan::SpanStats*>& b,
    const std::vector<int64_t>& keys_b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 || m == 0) return 0.0;
  const double total = MaxBipartiteMatchWeight(
      n, m, [&](size_t i, size_t j) {
        return SpanPairSimilarityCached(keys_a[i], *a[i], keys_b[j], *b[j]);
      });
  return total / static_cast<double>(std::max(n, m));
}

}  // namespace mlprov::similarity
