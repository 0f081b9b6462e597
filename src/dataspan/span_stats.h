#ifndef MLPROV_DATASPAN_SPAN_STATS_H_
#define MLPROV_DATASPAN_SPAN_STATS_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "dataspan/feature_stats.h"

namespace mlprov::dataspan {

/// Summary statistics for one data span: the set of features present and
/// their per-feature statistics. This is the MLMD side-metadata the paper
/// records for each Examples artifact (Section 2.2).
struct SpanStats {
  /// Monotonically increasing span number within the pipeline.
  int64_t span_number = 0;
  std::vector<FeatureStats> features;

  size_t NumFeatures() const { return features.size(); }
  size_t NumCategorical() const;
  size_t NumNumerical() const { return features.size() - NumCategorical(); }
};

/// A span's statistics are written once, where the span is drawn (the
/// simulator) or decoded (WAL replay, checkpoint restore), and only read
/// after that. Every holder — the trace, the feed record, a session's
/// table, a WAL entry — shares the one immutable object, so no ingest
/// path copies a SpanStats and any holder may outlive the producer.
using SpanStatsPtr = std::shared_ptr<const SpanStats>;

/// One pipeline's span statistics keyed by the Examples artifact id
/// (metadata::ArtifactId).
using SpanStatsTable = std::unordered_map<int64_t, SpanStatsPtr>;

/// Parameters of the schema of a simulated pipeline's data source: how many
/// features, the categorical mix, and domain sizes. Sampled once per
/// pipeline by the corpus generator.
struct SchemaConfig {
  int num_features = 20;
  /// Fraction of features that are categorical (paper: ~53% on average).
  double categorical_fraction = 0.53;
  /// Log10 of the mean categorical-domain size (paper: ~10.6M overall,
  /// 13.6M for DNN pipelines, >20M for Linear).
  double log10_domain_mean = 7.0;
  double log10_domain_stddev = 0.8;
  /// Mean datapoints per span.
  double log10_span_rows_mean = 5.0;
};

/// Generates the per-span statistics stream for one pipeline's data source,
/// with smooth distribution drift plus occasional shocks. Successive calls
/// to `NextSpan` yield spans whose distributions evolve: the drift model is
/// an Ornstein-Uhlenbeck walk on each feature's latent location/shape so
/// that consecutive spans are similar but slowly wander (Section 4.2's
/// "large overlaps but significant differences in data distribution").
class SpanStatsGenerator {
 public:
  SpanStatsGenerator(const SchemaConfig& config, common::Rng rng);

  /// Emits statistics for the next span.
  SpanStats NextSpan();

  /// Applies a distribution shock (e.g., upstream data change): jumps the
  /// latent parameters, increasing drift between neighboring spans.
  void Shock(double magnitude = 1.0);

  int64_t spans_emitted() const { return next_span_; }

 private:
  struct LatentFeature {
    FeatureKind kind = FeatureKind::kNumerical;
    // Numerical latents: location/scale of a clipped-normal over [0,1].
    double mean = 0.5;
    double stddev = 0.15;
    // Categorical latents: zipf skew and domain size.
    double zipf_s = 1.2;
    int64_t domain = 1000;
  };

  SchemaConfig config_;
  common::Rng rng_;
  std::vector<LatentFeature> latents_;
  std::vector<std::string> names_;
  int64_t next_span_ = 0;
};

}  // namespace mlprov::dataspan

#endif  // MLPROV_DATASPAN_SPAN_STATS_H_
