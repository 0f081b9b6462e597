// Parameterized property sweeps over the similarity stack: metric
// axioms of the Appendix B dataset similarity, EMD consistency with the
// 1-D closed form, and LSH sensitivity, across dimensions and seeds.
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataspan/span_stats.h"
#include "similarity/emd.h"
#include "similarity/s2jsd_lsh.h"
#include "similarity/span_similarity.h"

namespace mlprov::similarity {
namespace {

/// Sweep: distribution dimension for EMD-vs-1D cross-checks.
class EmdConsistencyTest : public ::testing::TestWithParam<int> {};

TEST_P(EmdConsistencyTest, ExactSolverMatchesClosedFormOn1D) {
  const int n = GetParam();
  common::Rng rng(100 + static_cast<uint64_t>(n));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> p(static_cast<size_t>(n)), q(static_cast<size_t>(n));
    for (double& x : p) x = rng.NextDouble();
    for (double& x : q) x = rng.NextDouble();
    const double exact = EarthMoversDistance(
        p, q, [n](size_t i, size_t j) {
          return std::abs(static_cast<double>(i) - static_cast<double>(j)) /
                 static_cast<double>(n);
        });
    EXPECT_NEAR(exact, Emd1D(p, q), 1e-8) << "dim " << n;
  }
}

TEST_P(EmdConsistencyTest, NonNegativeAndIdentity) {
  const int n = GetParam();
  common::Rng rng(200 + static_cast<uint64_t>(n));
  std::vector<double> p(static_cast<size_t>(n));
  for (double& x : p) x = rng.NextDouble();
  auto cost = [](size_t i, size_t j) { return i == j ? 0.0 : 1.0; };
  EXPECT_NEAR(EarthMoversDistance(p, p, cost), 0.0, 1e-9);
  EXPECT_GE(Emd1D(p, p), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Dims, EmdConsistencyTest,
                         ::testing::Values(2, 3, 5, 10, 25));

/// Sweep: LSH bucket width — coarser buckets must collide at least as
/// often as finer ones on the same input pairs (monotone sensitivity).
class LshSensitivityTest : public ::testing::TestWithParam<double> {};

TEST_P(LshSensitivityTest, NearCollidesMoreThanFar) {
  S2JsdLsh::Options options;
  options.bucket_width = GetParam();
  S2JsdLsh lsh(options);
  common::Rng rng(42);
  int near_hits = 0, far_hits = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> base(10);
    for (double& x : base) x = rng.Uniform(0.1, 1.0);
    std::vector<double> near = base;
    for (double& x : near) x *= rng.Uniform(0.99, 1.01);
    std::vector<double> far(10);
    for (double& x : far) x = rng.Uniform(0.0, 1.0);
    near_hits += lsh.Hash(base) == lsh.Hash(near) ? 1 : 0;
    far_hits += lsh.Hash(base) == lsh.Hash(far) ? 1 : 0;
  }
  EXPECT_GE(near_hits, far_hits);
}

TEST_P(LshSensitivityTest, SoftSimilarityBoundedAndReflexive) {
  FeatureSimilarityOptions options;
  options.alpha = 0.8;
  options.beta = 0.2;
  options.soft_hash = true;
  options.lsh.bucket_width = GetParam();
  options.lsh.num_hashes = 8;
  FeatureSimilarity fs(options);
  dataspan::SchemaConfig config;
  config.num_features = 12;
  dataspan::SpanStatsGenerator gen(config, common::Rng(7));
  const dataspan::SpanStats span = gen.NextSpan();
  for (const auto& f : span.features) {
    const auto h = fs.HashVector(f);
    const double self = fs.SoftSimilarity(f, h, f, h);
    EXPECT_NEAR(self, 1.0, 1e-12);  // alpha + beta with itself
  }
  // Cross-feature soft similarities stay in [0, 1].
  const auto& a = span.features[0];
  const auto ha = fs.HashVector(a);
  for (size_t i = 1; i < span.features.size(); ++i) {
    const auto hb = fs.HashVector(span.features[i]);
    const double s = fs.SoftSimilarity(a, ha, span.features[i], hb);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Buckets, LshSensitivityTest,
                         ::testing::Values(0.02, 0.05, 0.1, 0.25));

/// Sweep: sequence lengths for the Eq. 3 normalization property.
class SequenceLengthTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SequenceLengthTest, NormalizationBounds) {
  const auto [n, m] = GetParam();
  dataspan::SchemaConfig config;
  config.num_features = 8;
  dataspan::SpanStatsGenerator gen(config, common::Rng(5));
  std::vector<dataspan::SpanStats> spans;
  for (int i = 0; i < std::max(n, m); ++i) spans.push_back(gen.NextSpan());
  SpanSimilarityCalculator calc(FeatureSimilarityOptions{});
  std::vector<const dataspan::SpanStats*> a, b;
  std::vector<int64_t> ka, kb;
  for (int i = 0; i < n; ++i) {
    a.push_back(&spans[static_cast<size_t>(i)]);
    ka.push_back(i);
  }
  for (int i = 0; i < m; ++i) {
    b.push_back(&spans[static_cast<size_t>(i)]);
    kb.push_back(i);
  }
  const double s = calc.SequenceSimilarity(a, ka, b, kb);
  EXPECT_GE(s, 0.0);
  // Eq. 3: at most min(n,m)/max(n,m).
  EXPECT_LE(s, static_cast<double>(std::min(n, m)) /
                       static_cast<double>(std::max(n, m)) +
                   1e-12);
  // Symmetric.
  EXPECT_NEAR(s, calc.SequenceSimilarity(b, kb, a, ka), 1e-12);
  // Identical prefix sequences of equal length score 1 (alpha+beta=1).
  if (n == m) {
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Lengths, SequenceLengthTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(1, 4),
                      std::make_pair(3, 3), std::make_pair(2, 7),
                      std::make_pair(8, 8)));

/// Sweep: alpha/beta splits keep Eq. 2 within [0, alpha+beta].
class AlphaBetaTest : public ::testing::TestWithParam<double> {};

TEST_P(AlphaBetaTest, SimilarityBounded) {
  const double alpha = GetParam();
  FeatureSimilarityOptions options;
  options.alpha = alpha;
  options.beta = 1.0 - alpha;
  FeatureSimilarity fs(options);
  dataspan::SchemaConfig config;
  config.num_features = 10;
  dataspan::SpanStatsGenerator gen(config, common::Rng(9));
  const auto s1 = gen.NextSpan();
  const auto s2 = gen.NextSpan();
  for (size_t i = 0; i < s1.features.size(); ++i) {
    for (size_t j = 0; j < s2.features.size(); ++j) {
      const double s = fs.Similarity(s1.features[i], s2.features[j]);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0 + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaBetaTest,
                         ::testing::Values(0.0, 0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace mlprov::similarity
