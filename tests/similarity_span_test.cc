#include "similarity/span_similarity.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataspan/span_stats.h"
#include "similarity/s2jsd_lsh.h"

namespace mlprov::similarity {
namespace {

using dataspan::FeatureKind;
using dataspan::FeatureStats;
using dataspan::SpanStats;

TEST(JaccardTest, Basics) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity({}, {1}), 0.0);
}

TEST(JaccardTest, DeduplicatesInputs) {
  EXPECT_DOUBLE_EQ(JaccardSimilarity({1, 1, 2, 2}, {2, 2, 3}), 1.0 / 3.0);
}

TEST(S2JsdTest, MetricProperties) {
  const std::vector<double> p = {0.5, 0.5, 0.0};
  const std::vector<double> q = {0.0, 0.5, 0.5};
  EXPECT_NEAR(S2JsdLsh::S2Jsd(p, p), 0.0, 1e-9);
  EXPECT_GT(S2JsdLsh::S2Jsd(p, q), 0.0);
  EXPECT_NEAR(S2JsdLsh::S2Jsd(p, q), S2JsdLsh::S2Jsd(q, p), 1e-12);
  // Max value for disjoint supports: sqrt(2 * 1 bit) = sqrt(2).
  const std::vector<double> a = {1.0, 0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_NEAR(S2JsdLsh::S2Jsd(a, b), std::sqrt(2.0), 1e-9);
}

TEST(S2JsdLshTest, IdenticalDistributionsCollide) {
  S2JsdLsh lsh(S2JsdLsh::Options{});
  const std::vector<double> p = {0.1, 0.2, 0.3, 0.4, 0, 0, 0, 0, 0, 0};
  EXPECT_EQ(lsh.Hash(p), lsh.Hash(p));
  // Scaling does not matter (normalized internally).
  std::vector<double> p2 = p;
  for (double& x : p2) x *= 7.0;
  EXPECT_EQ(lsh.Hash(p), lsh.Hash(p2));
}

TEST(S2JsdLshTest, IsLocalitySensitive) {
  // Near distributions should collide much more often than far ones,
  // measured over many random instances.
  S2JsdLsh lsh(S2JsdLsh::Options{});
  common::Rng rng(99);
  int near_collisions = 0, far_collisions = 0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> base(10);
    for (double& x : base) x = rng.Uniform(0.1, 1.0);
    std::vector<double> near = base;
    for (double& x : near) x *= rng.Uniform(0.97, 1.03);
    std::vector<double> far(10);
    for (double& x : far) x = rng.Uniform(0.0, 1.0);
    if (lsh.Hash(base) == lsh.Hash(near)) ++near_collisions;
    if (lsh.Hash(base) == lsh.Hash(far)) ++far_collisions;
  }
  EXPECT_GT(near_collisions, far_collisions + trials / 10);
}

TEST(S2JsdLshTest, DeterministicAcrossInstancesWithSameSeed) {
  S2JsdLsh a(S2JsdLsh::Options{});
  S2JsdLsh b(S2JsdLsh::Options{});
  const std::vector<double> p = {0.3, 0.3, 0.4};
  EXPECT_EQ(a.Hash(p), b.Hash(p));
}

FeatureStats NumericalFeature(const std::string& name, double peak_bin) {
  FeatureStats f;
  f.name = name;
  f.kind = FeatureKind::kNumerical;
  for (int i = 0; i < dataspan::kNumericBins; ++i) {
    f.bins[static_cast<size_t>(i)] =
        (i == static_cast<int>(peak_bin)) ? 100.0 : 1.0;
  }
  return f;
}

SpanStats MakeSpan(int num_features, double peak_bin) {
  SpanStats s;
  for (int i = 0; i < num_features; ++i) {
    s.features.push_back(NumericalFeature('f' + std::to_string(i),
                                          peak_bin));
  }
  return s;
}

TEST(SpanSimilarityTest, IdenticalSpanIsOne) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats s = MakeSpan(5, 3);
  EXPECT_NEAR(calc.SpanPairSimilarity(s, s), 1.0, 1e-9);
}

TEST(SpanSimilarityTest, EmptySpanIsZero) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats s = MakeSpan(5, 3);
  const SpanStats empty;
  EXPECT_NEAR(calc.SpanPairSimilarity(s, empty), 0.0, 1e-12);
  EXPECT_NEAR(calc.SpanPairSimilarity(empty, empty), 0.0, 1e-12);
}

TEST(SpanSimilarityTest, DifferentDistributionsLowerSimilarity) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats a = MakeSpan(5, 1);
  const SpanStats b = MakeSpan(5, 8);  // same names, shifted distribution
  const double sim = calc.SpanPairSimilarity(a, b);
  // Names match (beta) but hashes differ (no alpha).
  EXPECT_LT(sim, 0.95);
  EXPECT_GT(sim, 0.2);
}

TEST(SpanSimilarityTest, DisjointNamesAndDistributions) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  SpanStats a = MakeSpan(4, 1);
  SpanStats b = MakeSpan(4, 8);
  for (size_t i = 0; i < b.features.size(); ++i) {
    b.features[i].name = "other" + std::to_string(i);
  }
  EXPECT_LT(calc.SpanPairSimilarity(a, b), 0.2);
}

TEST(SpanSimilarityTest, CrossKindFeaturesNeverMatch) {
  FeatureSimilarityOptions options;
  FeatureSimilarity fs(options);
  FeatureStats num = NumericalFeature("x", 2);
  FeatureStats cat;
  cat.name = "x";
  cat.kind = FeatureKind::kCategorical;
  cat.unique_terms = 100;
  cat.total_count = 1000;
  cat.top_term_counts = {500, 100, 50, 40, 30, 20, 10, 5, 3, 2};
  EXPECT_DOUBLE_EQ(fs.Similarity(num, cat), 0.0);
}

TEST(SpanSimilarityTest, Eq2Decomposition) {
  FeatureSimilarityOptions options;
  options.alpha = 0.6;
  options.beta = 0.4;
  FeatureSimilarity fs(options);
  FeatureStats f1 = NumericalFeature("same", 2);
  FeatureStats f2 = NumericalFeature("same", 2);
  EXPECT_NEAR(fs.Similarity(f1, f2), 1.0, 1e-12);  // both indicators
  FeatureStats f3 = NumericalFeature("other", 2);
  EXPECT_NEAR(fs.Similarity(f1, f3), 0.6, 1e-12);  // hash only
  FeatureStats f4 = NumericalFeature("same", 9);
  EXPECT_NEAR(fs.Similarity(f1, f4), 0.4, 1e-12);  // name only
  FeatureStats f5 = NumericalFeature("other", 9);
  EXPECT_NEAR(fs.Similarity(f1, f5), 0.0, 1e-12);  // neither
}

TEST(SequenceSimilarityTest, OrdinalAlignmentAndNormalization) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats s1 = MakeSpan(4, 2);
  const SpanStats s2 = MakeSpan(4, 2);
  const SpanStats s3 = MakeSpan(4, 2);
  std::vector<const SpanStats*> a = {&s1, &s2};
  std::vector<const SpanStats*> b = {&s1, &s2, &s3};
  // First two positions match perfectly; normalization by max(2,3) = 3.
  const double sim = calc.SequenceSimilarity(a, {1, 2}, b, {1, 2, 3});
  EXPECT_NEAR(sim, 2.0 / 3.0, 1e-9);
}

TEST(SequenceSimilarityTest, EmptySequences) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats s = MakeSpan(3, 2);
  std::vector<const SpanStats*> some = {&s};
  EXPECT_DOUBLE_EQ(calc.SequenceSimilarity({}, {}, some, {1}), 0.0);
  EXPECT_DOUBLE_EQ(calc.SequenceSimilarity({}, {}, {}, {}), 0.0);
}

TEST(SequenceSimilarityTest, ShiftedWindowsScoreLowerThanIdentical) {
  // Rolling window: {s1 s2 s3} vs {s2 s3 s4}. Ordinal matching compares
  // s1-s2, s2-s3, s3-s4, so drift lowers the score; identical windows
  // score 1.
  dataspan::SchemaConfig config;
  config.num_features = 10;
  dataspan::SpanStatsGenerator gen(config, common::Rng(31));
  std::vector<SpanStats> spans;
  for (int i = 0; i < 4; ++i) {
    gen.Shock(0.5);  // make consecutive spans clearly different
    spans.push_back(gen.NextSpan());
  }
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  std::vector<const SpanStats*> w1 = {&spans[0], &spans[1], &spans[2]};
  std::vector<const SpanStats*> w2 = {&spans[1], &spans[2], &spans[3]};
  const double shifted = calc.SequenceSimilarity(w1, {0, 1, 2}, w2, {1, 2, 3});
  const double same = calc.SequenceSimilarity(w1, {0, 1, 2}, w1, {0, 1, 2});
  EXPECT_NEAR(same, 1.0, 1e-9);
  EXPECT_LT(shifted, same);
}

TEST(BipartiteSimilarityTest, AtLeastSequenceSimilarity) {
  // Optimal matching can only beat (or tie) ordinal alignment.
  dataspan::SchemaConfig config;
  config.num_features = 8;
  dataspan::SpanStatsGenerator gen(config, common::Rng(41));
  std::vector<SpanStats> spans;
  for (int i = 0; i < 4; ++i) spans.push_back(gen.NextSpan());
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  std::vector<const SpanStats*> w1 = {&spans[0], &spans[1]};
  std::vector<const SpanStats*> w2 = {&spans[1], &spans[0]};  // swapped
  const double seq = calc.SequenceSimilarity(w1, {0, 1}, w2, {1, 0});
  const double bip = calc.BipartiteSimilarity(w1, {0, 1}, w2, {1, 0});
  EXPECT_GE(bip + 1e-9, seq);
  EXPECT_NEAR(bip, 1.0, 1e-9);  // perfect matching exists
}

TEST(SpanSimilarityCacheTest, CacheHitsProduceSameValues) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats a = MakeSpan(6, 2);
  const SpanStats b = MakeSpan(6, 7);
  const double first = calc.SpanPairSimilarityCached(10, a, 20, b);
  EXPECT_EQ(calc.cache_size(), 1u);
  const double second = calc.SpanPairSimilarityCached(10, a, 20, b);
  EXPECT_EQ(calc.cache_size(), 1u);
  EXPECT_DOUBLE_EQ(first, second);
  // Symmetric key: (20, 10) also hits.
  const double swapped = calc.SpanPairSimilarityCached(20, b, 10, a);
  EXPECT_EQ(calc.cache_size(), 1u);
  EXPECT_DOUBLE_EQ(first, swapped);
  calc.ClearCache();
  EXPECT_EQ(calc.cache_size(), 0u);
}

TEST(SpanSimilarityCacheTest, KeysDifferingOnlyInHighBitsDoNotAlias) {
  FeatureSimilarityOptions options;
  options.soft_hash = true;
  SpanSimilarityCalculator calc(options);
  const SpanStats a = MakeSpan(5, 1);
  const SpanStats b = MakeSpan(5, 1);
  SpanStats c = MakeSpan(5, 8);
  for (FeatureStats& f : c.features) f.name += "_c";
  const double ab = calc.PositionalSimilarityCached(1, a, 5, b);
  const int64_t far_key = (int64_t{1} << 32) + 5;
  const double ac = calc.PositionalSimilarityCached(1, a, far_key, c);
  SpanSimilarityCalculator fresh(options);
  EXPECT_EQ(ac, fresh.PositionalSimilarityCached(1, a, far_key, c));
  EXPECT_NE(ab, ac);
  EXPECT_EQ(calc.cache_size(), 2u);
}

TEST(SpanSimilarityCacheTest, MetricsDoNotShareEntries) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats a = MakeSpan(4, 1);
  SpanStats b = MakeSpan(4, 8);
  std::reverse(b.features.begin(), b.features.end());
  // Keys whose ordered pair once mapped the EMD and positional entries
  // to the same slot.
  const double emd = calc.SpanPairSimilarityCached(1, a, 5, b);
  const double positional = calc.PositionalSimilarityCached(1, a, 5, b);
  SpanSimilarityCalculator fresh(FeatureSimilarityOptions{});
  EXPECT_EQ(positional, fresh.PositionalSimilarityCached(1, a, 5, b));
  EXPECT_NE(emd, positional);
  EXPECT_EQ(calc.cache_size(), 2u);
}

TEST(SpanSimilarityCacheTest, UncachedMatchesCached) {
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  const SpanStats a = MakeSpan(5, 1);
  const SpanStats b = MakeSpan(5, 8);
  EXPECT_NEAR(calc.SpanPairSimilarity(a, b),
              calc.SpanPairSimilarityCached(1, a, 2, b), 1e-12);
}

}  // namespace
}  // namespace mlprov::similarity
