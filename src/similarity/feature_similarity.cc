#include "similarity/feature_similarity.h"

#include <algorithm>

namespace mlprov::similarity {

FeatureSimilarity::FeatureSimilarity(const FeatureSimilarityOptions& options)
    : options_(options), lsh_(options.lsh), rebinning_(options.lsh.dim) {}

void FeatureSimilarity::Buckets(const dataspan::FeatureStats& f,
                                double* scratch, int64_t* buckets) const {
  f.ToDistribution(rebinning_, scratch);
  lsh_.Buckets(scratch, buckets);
}

int64_t FeatureSimilarity::Hash(const dataspan::FeatureStats& f) const {
  const std::vector<int64_t> buckets = HashVector(f);
  return S2JsdLsh::Signature(buckets.data(), lsh_.options().num_hashes);
}

std::vector<int64_t> FeatureSimilarity::HashVector(
    const dataspan::FeatureStats& f) const {
  std::vector<double> scratch(static_cast<size_t>(lsh_.options().dim));
  std::vector<int64_t> buckets(
      static_cast<size_t>(lsh_.options().num_hashes));
  Buckets(f, scratch.data(), buckets.data());
  return buckets;
}

double FeatureSimilarity::SoftSimilarity(
    const dataspan::FeatureStats& f1, const std::vector<int64_t>& hashes1,
    const dataspan::FeatureStats& f2,
    const std::vector<int64_t>& hashes2) const {
  if (f1.kind != f2.kind) return 0.0;
  return SoftSimilarity(hashes1.data(), hashes2.data(),
                        std::min(hashes1.size(), hashes2.size()),
                        f1.name == f2.name);
}

double FeatureSimilarity::SoftSimilarity(const int64_t* buckets1,
                                         const int64_t* buckets2, size_t n,
                                         bool same_name) const {
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) matches += buckets1[i] == buckets2[i];
  double s = n ? options_.alpha * static_cast<double>(matches) /
                     static_cast<double>(n)
               : 0.0;
  if (same_name) s += options_.beta;
  return s;
}

double FeatureSimilarity::Similarity(const dataspan::FeatureStats& f1,
                                     int64_t hash1,
                                     const dataspan::FeatureStats& f2,
                                     int64_t hash2) const {
  if (f1.kind != f2.kind) return 0.0;
  double s = 0.0;
  if (hash1 == hash2) s += options_.alpha;
  if (f1.name == f2.name) s += options_.beta;
  return s;
}

double FeatureSimilarity::Similarity(const dataspan::FeatureStats& f1,
                                     const dataspan::FeatureStats& f2) const {
  return Similarity(f1, Hash(f1), f2, Hash(f2));
}

}  // namespace mlprov::similarity
