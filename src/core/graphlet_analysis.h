#ifndef MLPROV_CORE_GRAPHLET_ANALYSIS_H_
#define MLPROV_CORE_GRAPHLET_ANALYSIS_H_

/// Graphlet-level analyses of Section 4: corpus segmentation, input-span
/// reuse and similarity (Section 4.2, Table 1), retraining cadence
/// (Section 4.3.2, Figure 9), push statistics and drivers (Table 2), and
/// the Section 4.4 waste estimate. Invariants: per-pipeline work is
/// independent (analyses parallelize over pipelines with byte-identical
/// results at any thread count), and quarantined pipelines/graphlets are
/// counted and excluded rather than silently dropped.

#include <array>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/graphlet.h"
#include "core/segmentation.h"
#include "dataspan/span_stats.h"
#include "metadata/trace_validator.h"
#include "similarity/span_similarity.h"
#include "simulator/corpus.h"

namespace mlprov::core {

/// A pipeline's extracted graphlets, chronologically ordered by trainer
/// end time.
struct SegmentedPipeline {
  size_t pipeline_index = 0;
  std::vector<Graphlet> graphlets;
  /// Graphlets excluded from analysis because their trace was corrupt:
  /// either the whole pipeline was quarantined (dangling events, invalid
  /// types, time inversions — graphlets stays empty) or individual
  /// truncated graphlets were dropped after segmentation.
  size_t quarantined_graphlets = 0;
};

/// The graphlet view of a whole corpus — the unit of all Section 4 and 5
/// analyses.
struct SegmentedCorpus {
  std::vector<SegmentedPipeline> pipelines;
  size_t TotalGraphlets() const;
  size_t TotalPushed() const;
  size_t TotalQuarantined() const;
};

/// Segments every pipeline trace. Each store is validated first
/// (TraceValidator): traces that cannot be traversed trustworthily are
/// quarantined wholesale, truncated graphlets are dropped individually,
/// and both are tallied in quarantined_graphlets and the
/// "trace.quarantined" counter. Clean traces segment exactly as before.
SegmentedCorpus SegmentCorpus(const sim::Corpus& corpus);

/// Quarantine bookkeeping for one untrustworthy trace, shared between
/// SegmentCorpus and the sharded provenance service so both paths count
/// (and post-mortem) corrupt pipelines identically: returns the number
/// of trainers the trace would have anchored graphlets on, and persists
/// the validator's findings as a flight-recorder dump
/// ("quarantine_p<pipeline_index>") when a dump directory is configured.
size_t QuarantineTrace(const metadata::MetadataStore& store,
                       const metadata::ValidationReport& report,
                       size_t pipeline_index);

/// Drops graphlets whose trainer lost its input events — their span
/// lineage (and thus every similarity/waste statistic) is meaningless.
/// Returns how many were dropped. Shared by SegmentCorpus and the
/// sharded service for identical truncation handling.
size_t DropTruncatedGraphlets(const metadata::MetadataStore& store,
                              std::vector<Graphlet>& graphlets);

/// Section 4.2 (Table 1): similarity of consecutive graphlets. Values are
/// histogrammed over the paper's four ranges [0,.25],(.25,.5],(.5,.75],
/// (.75,1], plus the mean.
struct SimilarityTable {
  std::array<double, 4> jaccard_hist = {};
  double jaccard_mean = 0.0;
  std::array<double, 4> dataset_hist = {};
  double dataset_mean = 0.0;
  /// Dataset similarity averaged per pipeline first (Table 1 row 3).
  std::array<double, 4> avg_dataset_hist = {};
  double avg_dataset_mean = 0.0;
  size_t num_pairs = 0;
};

struct SimilarityOptions {
  similarity::FeatureSimilarityOptions feature_options =
      MakeDefaultFeatureOptions();
  /// Cap on consecutive pairs sampled per pipeline (0 = no cap); keeps
  /// corpus-scale analysis tractable for very chatty pipelines.
  size_t max_pairs_per_pipeline = 400;
  /// Match span features positionally instead of via the EMD (used for
  /// the predictive features; the Table 1 reporting metric keeps the
  /// paper's EMD formulation).
  bool positional_features = false;

  static similarity::FeatureSimilarityOptions MakeDefaultFeatureOptions() {
    similarity::FeatureSimilarityOptions options;
    // Hash-dominant weighting (Appendix B: anonymized names make the name
    // term fire rarely in the corpus; the hash term carries the signal).
    options.alpha = 0.8;
    options.beta = 0.2;
    options.lsh.bucket_width = 0.005;
    options.lsh.num_hashes = 4;
    return options;
  }
};

SimilarityTable ComputeSimilarityTable(const sim::Corpus& corpus,
                                       const SegmentedCorpus& segmented,
                                       const SimilarityOptions& options = {});

/// Figure 9 + Section 4.3 push analysis.
struct PushStats {
  /// Per-pipeline average hours between consecutive graphlets (Fig 9a/b).
  std::vector<double> gap_hours_all;
  /// Per-pipeline average hours between consecutive *pushed* graphlets.
  std::vector<double> gap_hours_pushed;
  /// Number of unpushed graphlets between consecutive pushes (Fig 9c),
  /// one entry per push gap.
  std::vector<double> graphlets_between_pushes;
  /// Trainer cost of pushed / unpushed graphlets (Fig 9d).
  std::vector<double> train_cost_pushed;
  std::vector<double> train_cost_unpushed;
  /// Graphlet durations in hours (Fig 9e).
  std::vector<double> duration_hours;
  /// Push likelihood by model type (Fig 9f).
  std::array<double, metadata::kNumModelTypes> push_rate_by_type = {};
  std::array<size_t, metadata::kNumModelTypes> graphlets_by_type = {};
  size_t total_graphlets = 0;
  size_t pushed_graphlets = 0;

  double UnpushedFraction() const;
};

PushStats ComputePushStats(const SegmentedCorpus& segmented);

/// Section 4.3.2: conservative waste estimate. `warmstart_graphlet_share`
/// and `overlappable_cost_share` reproduce the paper's two discounts.
struct WasteEstimate {
  double unpushed_fraction = 0.0;
  double unpushed_cost_fraction = 0.0;
  double warmstart_graphlet_share = 0.0;
  /// Lower bound on wasted computation under the paper's generous
  /// assumptions (discounting warm-start pipelines and overlappable
  /// operator cost).
  double conservative_waste = 0.0;
};

WasteEstimate EstimateWaste(const sim::Corpus& corpus,
                            const SegmentedCorpus& segmented,
                            double overlappable_cost_share = 0.6);

/// Table 2: data-similarity and code-match of each graphlet vs its
/// immediate predecessor, split by push outcome.
struct PushDriverStats {
  double input_similarity_pushed = 0.0;
  double input_similarity_unpushed = 0.0;
  double input_similarity_all = 0.0;
  double code_match_pushed = 0.0;
  double code_match_unpushed = 0.0;
  double code_match_all = 0.0;
};

struct PushDriverOptions {
  SimilarityOptions similarity;
};

/// Table 2 push drivers. Fails with InvalidArgument on degenerate
/// similarity weights (alpha + beta must be positive).
common::StatusOr<PushDriverStats> ComputePushDrivers(
    const sim::Corpus& corpus, const SegmentedCorpus& segmented,
    const PushDriverOptions& options = {});

/// Shared helper: Eq.-3 dataset similarity between two graphlets of the
/// same pipeline, using (and filling) the calculator's cache.
double GraphletDatasetSimilarity(const sim::PipelineTrace& trace,
                                 const Graphlet& a, const Graphlet& b,
                                 similarity::SpanSimilarityCalculator& calc,
                                 bool positional_features = false);

/// Same, over a bare span-statistics side table — the form streaming
/// consumers hold (a session accumulates the map record by record).
double GraphletDatasetSimilarity(
    const std::unordered_map<metadata::ArtifactId, dataspan::SpanStats>&
        span_stats,
    const Graphlet& a, const Graphlet& b,
    similarity::SpanSimilarityCalculator& calc,
    bool positional_features = false);

/// Jaccard similarity of the two graphlets' input span sets (Sec 4.2.1).
double GraphletJaccard(const Graphlet& a, const Graphlet& b);

}  // namespace mlprov::core

#endif  // MLPROV_CORE_GRAPHLET_ANALYSIS_H_
