// Exactness of the span-sketch hashing path. The reference below is the
// per-feature path that span sketches replaced (FeatureStats::
// ToDistribution, S2JsdLsh::HashVector with row-major projections and
// std::floor, FeatureSimilarity::SoftSimilarity and the positional and EMD
// span loops), copied verbatim apart from turning members into
// parameters. Every comparison is on bit patterns, not tolerances.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dataspan/feature_stats.h"
#include "dataspan/span_stats.h"
#include "similarity/emd.h"
#include "similarity/feature_similarity.h"
#include "similarity/s2jsd_lsh.h"
#include "similarity/span_similarity.h"

namespace mlprov::similarity {
namespace {

using dataspan::FeatureKind;
using dataspan::FeatureStats;
using dataspan::kNumericBins;
using dataspan::kTopTerms;
using dataspan::SpanStats;

// ---- Reference: the hashing path before span sketches ----
namespace reference {

void Spread(double lo, double hi, double mass, std::vector<double>& out) {
  if (mass <= 0.0 || hi <= lo) return;
  const int n = static_cast<int>(out.size());
  const double width = hi - lo;
  const double bin_w = 1.0 / n;
  int first = std::clamp(static_cast<int>(lo / bin_w), 0, n - 1);
  int last = std::clamp(static_cast<int>((hi - 1e-15) / bin_w), 0, n - 1);
  for (int b = first; b <= last; ++b) {
    const double b_lo = b * bin_w;
    const double b_hi = b_lo + bin_w;
    const double overlap =
        std::max(0.0, std::min(hi, b_hi) - std::max(lo, b_lo));
    out[b] += mass * overlap / width;
  }
}

std::vector<double> ToDistribution(const FeatureStats& f, int out_bins) {
  std::vector<double> out(static_cast<size_t>(out_bins), 0.0);
  if (f.kind == FeatureKind::kNumerical) {
    double total = 0.0;
    for (double b : f.bins) total += std::max(0.0, b);
    if (total <= 0.0) return out;
    for (int i = 0; i < kNumericBins; ++i) {
      Spread(static_cast<double>(i) / kNumericBins,
             static_cast<double>(i + 1) / kNumericBins,
             std::max(0.0, f.bins[static_cast<size_t>(i)]) / total, out);
    }
    return out;
  }
  if (f.total_count <= 0 || f.unique_terms <= 0) return out;
  const double n_terms = static_cast<double>(f.unique_terms);
  std::array<double, kTopTerms> top = f.top_term_counts;
  std::sort(top.begin(), top.end(), std::greater<>());
  double top_mass = 0.0;
  const int observed_top =
      static_cast<int>(std::min<int64_t>(f.unique_terms, kTopTerms));
  for (int i = 0; i < observed_top; ++i) {
    top_mass += std::max(0.0, top[static_cast<size_t>(i)]);
  }
  const double total = static_cast<double>(f.total_count);
  top_mass = std::min(top_mass, total);
  for (int i = 0; i < observed_top; ++i) {
    const double p = std::max(0.0, top[static_cast<size_t>(i)]) / total;
    Spread(static_cast<double>(i) / n_terms,
           static_cast<double>(i + 1) / n_terms, p, out);
  }
  if (f.unique_terms > kTopTerms) {
    const double tail_mass = std::max(0.0, (total - top_mass) / total);
    Spread(static_cast<double>(kTopTerms) / n_terms, 1.0, tail_mass, out);
  }
  return out;
}

std::vector<double> NormalizedPadded(const std::vector<double>& v,
                                     size_t dim) {
  std::vector<double> out(dim, 0.0);
  double total = 0.0;
  for (size_t i = 0; i < std::min(v.size(), dim); ++i) {
    total += std::max(0.0, v[i]);
  }
  if (total <= 0.0) return out;
  for (size_t i = 0; i < std::min(v.size(), dim); ++i) {
    out[i] = std::max(0.0, v[i]) / total;
  }
  return out;
}

class Lsh {
 public:
  explicit Lsh(const S2JsdLsh::Options& options) : options_(options) {
    common::Rng rng(options_.seed);
    const size_t total = static_cast<size_t>(options_.num_hashes) *
                         static_cast<size_t>(options_.dim);
    projections_.resize(total);
    for (double& p : projections_) p = rng.Normal();
    offsets_.resize(static_cast<size_t>(options_.num_hashes));
    for (double& b : offsets_) b = rng.Uniform(0.0, options_.bucket_width);
  }

  std::vector<int64_t> HashVector(
      const std::vector<double>& distribution) const {
    const auto dim = static_cast<size_t>(options_.dim);
    const std::vector<double> p = NormalizedPadded(distribution, dim);
    std::vector<double> phi(dim);
    for (size_t i = 0; i < dim; ++i) phi[i] = std::sqrt(p[i]);
    std::vector<int64_t> buckets(static_cast<size_t>(options_.num_hashes));
    for (int h = 0; h < options_.num_hashes; ++h) {
      double dot = 0.0;
      const double* a = &projections_[static_cast<size_t>(h) * dim];
      for (size_t i = 0; i < dim; ++i) dot += a[i] * phi[i];
      buckets[static_cast<size_t>(h)] = static_cast<int64_t>(
          std::floor((dot + offsets_[static_cast<size_t>(h)]) /
                     options_.bucket_width));
    }
    return buckets;
  }

  int64_t Hash(const std::vector<double>& distribution) const {
    uint64_t signature = 0xCBF29CE484222325ull;
    for (int64_t bucket : HashVector(distribution)) {
      signature ^= static_cast<uint64_t>(bucket) + 0x9E3779B97F4A7C15ull +
                   (signature << 6) + (signature >> 2);
    }
    return static_cast<int64_t>(signature);
  }

 private:
  S2JsdLsh::Options options_;
  std::vector<double> projections_;
  std::vector<double> offsets_;
};

double SoftSimilarity(const FeatureSimilarityOptions& options_,
                      const FeatureStats& f1,
                      const std::vector<int64_t>& hashes1,
                      const FeatureStats& f2,
                      const std::vector<int64_t>& hashes2) {
  if (f1.kind != f2.kind) return 0.0;
  const size_t n = std::min(hashes1.size(), hashes2.size());
  double matches = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (hashes1[i] == hashes2[i]) matches += 1.0;
  }
  double s = n ? options_.alpha * matches / static_cast<double>(n) : 0.0;
  if (f1.name == f2.name) s += options_.beta;
  return s;
}

double Similarity(const FeatureSimilarityOptions& options_,
                  const FeatureStats& f1, int64_t hash1,
                  const FeatureStats& f2, int64_t hash2) {
  if (f1.kind != f2.kind) return 0.0;
  double s = 0.0;
  if (hash1 == hash2) s += options_.alpha;
  if (f1.name == f2.name) s += options_.beta;
  return s;
}

/// PositionalSimilarityCached's computation, uncached.
double Positional(const FeatureSimilarityOptions& options,
                  const SpanStats& a, const SpanStats& b) {
  const Lsh lsh(options.lsh);
  const int dim = options.lsh.dim;
  double value = 0.0;
  if (!a.features.empty() && !b.features.empty()) {
    const size_t common = std::min(a.features.size(), b.features.size());
    double total = 0.0;
    if (options.soft_hash) {
      for (size_t i = 0; i < common; ++i) {
        total += SoftSimilarity(
            options, a.features[i],
            lsh.HashVector(ToDistribution(a.features[i], dim)),
            b.features[i],
            lsh.HashVector(ToDistribution(b.features[i], dim)));
      }
    } else {
      for (size_t i = 0; i < common; ++i) {
        total += Similarity(options, a.features[i],
                            lsh.Hash(ToDistribution(a.features[i], dim)),
                            b.features[i],
                            lsh.Hash(ToDistribution(b.features[i], dim)));
      }
    }
    value = total / static_cast<double>(
                        std::max(a.features.size(), b.features.size()));
  }
  return value;
}

/// SpanPairSimilarity's computation.
double SpanPair(const FeatureSimilarityOptions& options, const SpanStats& a,
                const SpanStats& b) {
  if (a.features.empty() || b.features.empty()) return 0.0;
  const Lsh lsh(options.lsh);
  std::vector<int64_t> ha, hb;
  for (const auto& f : a.features) {
    ha.push_back(lsh.Hash(ToDistribution(f, options.lsh.dim)));
  }
  for (const auto& f : b.features) {
    hb.push_back(lsh.Hash(ToDistribution(f, options.lsh.dim)));
  }
  const std::vector<double> supply(a.features.size(), 1.0);
  const std::vector<double> demand(b.features.size(), 1.0);
  const double emd = EarthMoversDistance(
      supply, demand, [&](size_t i, size_t j) {
        return 1.0 - Similarity(options, a.features[i], ha[i], b.features[j],
                                hb[j]);
      });
  return std::clamp(1.0 - emd, 0.0, 1.0);
}

}  // namespace reference

// ---- Inputs ----

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(want[i]))
        << what << " bin " << i << ": " << got[i] << " vs " << want[i];
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kTiny = std::numeric_limits<double>::denorm_min();

FeatureStats Numerical(const std::array<double, kNumericBins>& bins) {
  FeatureStats f;
  f.name = "num";
  f.kind = FeatureKind::kNumerical;
  f.bins = bins;
  return f;
}

FeatureStats Categorical(int64_t unique_terms, int64_t total_count,
                         const std::array<double, kTopTerms>& top) {
  FeatureStats f;
  f.name = "cat";
  f.kind = FeatureKind::kCategorical;
  f.unique_terms = unique_terms;
  f.total_count = total_count;
  f.top_term_counts = top;
  return f;
}

/// Edge-case features of both kinds, then features a span generator
/// emits.
std::vector<FeatureStats> Features() {
  std::vector<FeatureStats> out = {
      Numerical({1, 2, 3, 4, 0, 0, 0, 0, 0, 0}),
      Numerical({0, 0, 0, 0, 0, 0, 0, 0, 0, 0}),
      Numerical({-5, 1, 0, 0, -1e-300, 0, 0, 0, 0, 3}),
      Numerical({-1, -2, -3, -4, -5, -6, -7, -8, -9, -10}),
      Numerical({kNaN, 1, 2, 0, 0, kNaN, 0, 0, 0, 1}),
      Numerical({1e308, 1e308, 1e308, 1, 0, 0, 0, 0, 0, 0}),
      Numerical({kInf, 1, 0, 0, 0, 0, 0, 0, 0, 0}),
      Numerical({kMax, kMax, 0, 0, 0, 0, 0, 0, 0, 0}),
      Numerical({kTiny, 0, 0, 0, 0, 0, 0, 0, 0, kTiny}),
      Numerical({0, 0, 0, 0, 0, 0, 0, 0, 0, 7}),
      Numerical({1, 1, 1, 1, 1, 1, 1, 1, 1, 1}),
  };
  const std::array<double, kTopTerms> zipf = {3000, 1500, 800, 500, 300,
                                              200,  150,  100, 80,  50};
  const std::array<double, kTopTerms> ascending = {2,  3,  5,   10,  20,
                                                   30, 40, 50, 100, 500};
  for (const int64_t unique :
       {int64_t{1}, int64_t{4}, int64_t{10}, int64_t{11}, int64_t{99},
        int64_t{100}, int64_t{101}, int64_t{159}, int64_t{160},
        int64_t{161}, int64_t{1000}, int64_t{10000000}, int64_t{1} << 40}) {
    out.push_back(Categorical(unique, 10000, zipf));
    out.push_back(Categorical(unique, 1000, ascending));
  }
  out.push_back(Categorical(1000, 0, zipf));
  out.push_back(Categorical(0, 1000, zipf));
  out.push_back(Categorical(-3, 1000, zipf));
  out.push_back(Categorical(1000, 100, zipf));  // top mass above total
  out.push_back(Categorical(50, 1000, {-5, 100, 0, 0, 3, -1, 0, 0, 0, 1}));
  out.push_back(Categorical(50, 1000, {kNaN, 100, 0, 0, 3, 1, 0, 0, 0, 1}));
  out.push_back(Categorical(50, 1000, {1e308, 1e308, 1, 0, 0, 0, 0, 0, 0, 0}));
  out.push_back(Categorical(int64_t{1} << 62, int64_t{1} << 62, zipf));
  out.push_back(Categorical(12, 1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}));
  dataspan::SchemaConfig config;
  config.num_features = 24;
  dataspan::SpanStatsGenerator gen(config, common::Rng(17));
  for (int s = 0; s < 3; ++s) {
    gen.Shock(0.5);
    const SpanStats span = gen.NextSpan();
    out.insert(out.end(), span.features.begin(), span.features.end());
  }
  return out;
}

TEST(FeatureStatsExactTest, BufferDistributionMatchesReferenceBits) {
  for (const int out_bins : {1, 7, 10, 16}) {
    const dataspan::Rebinning rebinning(out_bins);
    std::vector<double> buffer(static_cast<size_t>(out_bins));
    int index = 0;
    for (const FeatureStats& f : Features()) {
      const std::string what = "out_bins " + std::to_string(out_bins) +
                               " feature " + std::to_string(index++);
      const std::vector<double> want = reference::ToDistribution(f, out_bins);
      std::fill(buffer.begin(), buffer.end(), kNaN);  // must be overwritten
      f.ToDistribution(rebinning, buffer.data());
      ExpectSameBits(buffer, want, what);
      ExpectSameBits(f.ToDistribution(out_bins), want, what + " (vector)");
    }
  }
}

TEST(S2JsdLshExactTest, FloorToInt64MatchesFloor) {
  const double values[] = {0.0,
                           -0.0,
                           0.5,
                           -0.5,
                           1.0,
                           -1.0,
                           -2.0,
                           2.5,
                           -2.5,
                           -3.0000000000000004,
                           -2.9999999999999996,
                           1e15,
                           -1e15,
                           0x1p52 + 1.0,
                           -(0x1p52 + 1.0),
                           4503599627370495.5,
                           -4503599627370495.5,
                           0x1p53,
                           -0x1p53,
                           0x1p62,
                           -0x1p62,
                           0x1p63 - 1024.0,
                           -0x1p63 + 1024.0,
                           -0x1p63,
                           kTiny,
                           -kTiny};
  for (const double x : values) {
    EXPECT_EQ(FloorToInt64(x), static_cast<int64_t>(std::floor(x))) << x;
  }
  for (const double x : {kNaN, kInf, -kInf, 0x1p63, 1e300, -1e300}) {
    EXPECT_EQ(FloorToInt64(x), INT64_MIN) << x;
  }
}

TEST(S2JsdLshExactTest, BucketsMatchReference) {
  struct Shape {
    int dim;
    int num_hashes;
  };
  bool saw_negative = false;
  for (const Shape shape : {Shape{10, 16}, Shape{10, 4}, Shape{3, 1},
                            Shape{100, 16}}) {
    for (const double width : {0.001, 0.005, 0.02, 0.1, 0.25}) {
      FeatureSimilarityOptions options;
      options.lsh.dim = shape.dim;
      options.lsh.num_hashes = shape.num_hashes;
      options.lsh.bucket_width = width;
      const FeatureSimilarity fs(options);
      const S2JsdLsh lsh(options.lsh);
      const reference::Lsh ref(options.lsh);
      const std::string what = "dim " + std::to_string(shape.dim) +
                               " hashes " + std::to_string(shape.num_hashes) +
                               " width " + std::to_string(width);
      int index = 0;
      for (const FeatureStats& f : Features()) {
        const std::vector<double> d = reference::ToDistribution(f, shape.dim);
        const std::vector<int64_t> want = ref.HashVector(d);
        EXPECT_EQ(fs.HashVector(f), want) << what << " feature " << index;
        EXPECT_EQ(lsh.HashVector(d), want) << what << " feature " << index;
        EXPECT_EQ(fs.Hash(f), ref.Hash(d)) << what << " feature " << index;
        for (int64_t b : want) saw_negative |= b < 0;
        ++index;
      }
      // Raw distributions: shorter and longer than dim, unnormalized,
      // with negative and NaN entries.
      common::Rng rng(static_cast<uint64_t>(shape.dim * 131 + index));
      for (const size_t n :
           {size_t{0}, size_t{1}, static_cast<size_t>(shape.dim),
            static_cast<size_t>(shape.dim) + 5}) {
        for (int trial = 0; trial < 8; ++trial) {
          std::vector<double> d(n);
          for (double& x : d) x = rng.Uniform(-0.2, 3.0);
          if (trial == 1 && n > 0) d[0] = kNaN;
          EXPECT_EQ(lsh.HashVector(d), ref.HashVector(d)) << what;
          EXPECT_EQ(lsh.Hash(d), ref.Hash(d)) << what;
        }
      }
      // An infinite entry normalizes to NaN. The reference converted
      // floor(NaN) to an integer, which is undefined; the kernel defines
      // it as the value x86-64 gave.
      const std::vector<int64_t> nan_buckets = lsh.HashVector({kInf, 1.0});
      for (int64_t b : nan_buckets) EXPECT_EQ(b, INT64_MIN) << what;
    }
  }
  EXPECT_TRUE(saw_negative);
}

/// Generator spans of one schema, plus variants that stress the
/// positional compare.
std::vector<SpanStats> MakeSpans() {
  dataspan::SchemaConfig config;
  config.num_features = 20;
  dataspan::SpanStatsGenerator gen(config, common::Rng(23));
  std::vector<SpanStats> spans;
  for (int i = 0; i < 4; ++i) spans.push_back(gen.NextSpan());
  gen.Shock(1.0);
  spans.push_back(gen.NextSpan());
  // Kinds flipped at some positions (names kept).
  SpanStats flipped = spans[1];
  for (size_t i = 0; i < flipped.features.size(); i += 3) {
    FeatureStats& f = flipped.features[i];
    f.kind = f.kind == FeatureKind::kNumerical ? FeatureKind::kCategorical
                                               : FeatureKind::kNumerical;
  }
  spans.push_back(flipped);
  // Fewer features.
  SpanStats shorter = spans[2];
  shorter.features.resize(13);
  spans.push_back(shorter);
  // Names shared with the schema but at other positions, plus a new name.
  SpanStats renamed = spans[3];
  std::rotate(renamed.features.begin(), renamed.features.begin() + 1,
              renamed.features.end());
  renamed.features[4].name = "other";
  renamed.features[7].name = spans[3].features[7].name;
  spans.push_back(renamed);
  spans.emplace_back();  // empty
  return spans;
}

TEST(SpanSimilarityExactTest, PositionalMatchesReferenceBits) {
  const std::vector<SpanStats> spans = MakeSpans();
  for (const bool soft : {true, false}) {
    for (const int num_hashes : {16, 4}) {
      FeatureSimilarityOptions options;
      options.alpha = 0.8;
      options.beta = 0.2;
      options.soft_hash = soft;
      options.lsh.bucket_width = 0.1;
      options.lsh.num_hashes = num_hashes;
      SpanSimilarityCalculator calc(options);
      for (size_t i = 0; i < spans.size(); ++i) {
        for (size_t j = 0; j < spans.size(); ++j) {
          const double want =
              reference::Positional(options, spans[i], spans[j]);
          const double got = calc.PositionalSimilarityCached(
              static_cast<int64_t>(i), spans[i], static_cast<int64_t>(j),
              spans[j]);
          EXPECT_EQ(Bits(got), Bits(want))
              << "soft " << soft << " hashes " << num_hashes << " pair " << i
              << "," << j << ": " << got << " vs " << want;
        }
      }
    }
  }
}

TEST(SpanSimilarityExactTest, EmdMatchesReferenceBits) {
  const std::vector<SpanStats> spans = MakeSpans();
  const FeatureSimilarityOptions options;
  SpanSimilarityCalculator calc(options);
  for (size_t i = 0; i < spans.size(); ++i) {
    for (size_t j = i; j < spans.size(); ++j) {
      const double want =
          reference::SpanPair(options, spans[i], spans[j]);
      EXPECT_EQ(Bits(calc.SpanPairSimilarity(spans[i], spans[j])),
                Bits(want))
          << i << "," << j;
      EXPECT_EQ(Bits(calc.SpanPairSimilarityCached(
                    static_cast<int64_t>(i), spans[i],
                    static_cast<int64_t>(j), spans[j])),
                Bits(want))
          << i << "," << j;
    }
  }
}

TEST(SequenceSimilarityExactTest, PositionalSequenceMatchesReferenceBits) {
  const std::vector<SpanStats> spans = MakeSpans();
  FeatureSimilarityOptions options;
  options.alpha = 0.8;
  options.beta = 0.2;
  options.soft_hash = true;
  options.lsh.bucket_width = 0.1;
  options.lsh.num_hashes = 16;
  SpanSimilarityCalculator calc(options);
  const std::vector<size_t> window_a = {0, 1, 2, 5};
  const std::vector<size_t> window_b = {1, 2, 3, 6, 7, 8};
  std::vector<const SpanStats*> a, b;
  std::vector<int64_t> keys_a, keys_b;
  for (size_t i : window_a) {
    a.push_back(&spans[i]);
    keys_a.push_back(static_cast<int64_t>(i));
  }
  for (size_t i : window_b) {
    b.push_back(&spans[i]);
    keys_b.push_back(static_cast<int64_t>(i));
  }
  double total = 0.0;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    total += reference::Positional(options, *a[i], *b[i]);
  }
  const double want =
      total / static_cast<double>(std::max(a.size(), b.size()));
  EXPECT_EQ(Bits(calc.SequenceSimilarity(a, keys_a, b, keys_b, true)),
            Bits(want));
}

}  // namespace
}  // namespace mlprov::similarity
