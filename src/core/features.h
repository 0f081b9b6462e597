#ifndef MLPROV_CORE_FEATURES_H_
#define MLPROV_CORE_FEATURES_H_

/// Graphlet featurization for the Section 5.2 waste-mitigation
/// classifier. Invariants: every feature is computable from provenance
/// available *before* the graphlet's outcome is known (no label
/// leakage), history features only look backward within the same
/// pipeline, and the emitted ml::Dataset keeps one row per analyzed
/// graphlet in segmentation order with the pipeline id as group key so
/// grouped splits never leak a pipeline across train/test.

#include <array>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "core/graphlet_analysis.h"
#include "dataspan/span_stats.h"
#include "ml/dataset.h"
#include "similarity/span_similarity.h"

namespace mlprov::core {

/// Feature groups from Section 5.2.1. Group membership drives both the
/// Table 3 variants (incrementally revealing shape groups) and the
/// ablation study.
enum class FeatureGroup {
  kModelInfo = 0,   // model type + architecture one-hots
  kInputData = 1,   // history-window Jaccard + dataset similarity
  kCodeChange = 2,  // history-window code-version match indicators
  kShapePre = 3,    // pre-trainer operator counts and avg I/O
  kShapeTrainer = 4,  // trainer shape
  kShapePost = 5,     // post-trainer validator shape (excl. Pusher!)
};
inline constexpr int kNumFeatureGroups = 6;
const char* ToString(FeatureGroup group);

struct FeatureOptions {
  /// Number of immediately preceding graphlets used for history features
  /// (Section 5.2.1 uses a small window; one feature per ordinal lag).
  int history_window = 3;
  /// Exclude graphlets from warm-starting pipelines (Section 5's corpus
  /// filter: unpushed graphlets there are not necessarily waste).
  bool exclude_warmstart_pipelines = true;
  /// Similarity used for the history features. Defaults to a coarser LSH
  /// than the Table 1 reporting metric: the predictive task benefits from
  /// hash collisions that track gradual drift (collide under background
  /// drift, separate after distribution shocks).
  SimilarityOptions similarity = CoarseSimilarity();

  static SimilarityOptions CoarseSimilarity() {
    SimilarityOptions options;
    options.feature_options.soft_hash = true;
    options.feature_options.lsh.bucket_width = 0.10;
    options.feature_options.lsh.num_hashes = 16;
    options.positional_features = true;
    return options;
  }
};

/// The §5 learning problem: one row per graphlet, label = pushed.
struct WasteDataset {
  ml::Dataset data;
  /// Column indices per feature group (for variant/ablation selection).
  std::array<std::vector<size_t>, kNumFeatureGroups> group_columns;
  /// Graphlet total cost per row (waste accounting in Fig 10).
  std::vector<double> total_cost;
  /// Cumulative pipeline cost incurred by the time each feature stage is
  /// available, per row: [input, +pre-trainer, +trainer, +validation].
  /// Used for Table 3's "feature cost" column.
  std::array<std::vector<double>, 4> stage_cost;
  /// Number of pipelines contributing rows.
  size_t num_pipelines = 0;

  /// Union of columns for a set of groups, sorted.
  std::vector<size_t> ColumnsFor(
      const std::vector<FeatureGroup>& groups) const;
};

/// Incremental graphlet featurization: the per-pipeline row builder
/// behind BuildWasteDataset, exposed so the streaming online scorer can
/// featurize graphlets as they seal. Feed graphlets of ONE pipeline in
/// segmentation order; NextRow maintains the same history window,
/// trailing similarity baselines, and shared similarity cache the batch
/// build keeps per pipeline, so a row-for-row replay of a segmented
/// pipeline is bit-identical to the batch dataset's rows.
class GraphletFeaturizer {
 public:
  struct Schema {
    std::vector<std::string> names;
    /// Column indices per feature group (same registry as WasteDataset).
    std::array<std::vector<size_t>, kNumFeatureGroups> group_columns;
  };
  /// The column layout BuildWasteDataset emits for `options`.
  static Schema BuildSchema(const FeatureOptions& options);

  /// `store` and `span_stats` describe the pipeline's (possibly still
  /// growing) trace; both are borrowed and must outlive the featurizer.
  /// A span's stats are read when a graphlet carrying it is featurized,
  /// so they must arrive no later than the span. The table may gain
  /// entries but must not drop or replace one: history entries point
  /// into the shared stats objects it holds.
  GraphletFeaturizer(const metadata::MetadataStore* store,
                     const dataspan::SpanStatsTable* span_stats,
                     const FeatureOptions& options = {});

  /// The same over a table that owns its stats by value, for callers
  /// that keep their own copies. Both constructors feed the one lookup
  /// (FindSpan), so they give bit-identical rows.
  GraphletFeaturizer(
      const metadata::MetadataStore* store,
      const std::unordered_map<metadata::ArtifactId, dataspan::SpanStats>*
          span_stats,
      const FeatureOptions& options = {});

  /// Featurizes the pipeline's next graphlet and advances the history
  /// state. Rows are ordered like BuildSchema's names.
  std::vector<double> NextRow(const Graphlet& graphlet) {
    std::vector<double> row = Row(graphlet);
    Advance(graphlet);
    return row;
  }

  /// Featurizes against the current history WITHOUT advancing it. The
  /// online scorer probes the same graphlet at several intervention
  /// points as it grows; only the settled graphlet is committed.
  std::vector<double> Row(const Graphlet& graphlet);

  /// Commits the graphlet to the history window and the similarity
  /// baselines. Row(g) followed by Advance(g) is bit-identical to the
  /// batch NextRow(g), and takes Row's lag-1 similarities instead of
  /// computing them again.
  void Advance(const Graphlet& graphlet);

  /// Rewrites only the operator-shape columns (kShapePre / kShapeTrainer
  /// / kShapePost) of a previously computed row against the graphlet's
  /// current members. The online scorer captures history and input
  /// features once, when they become observable, and refreshes the shape
  /// as the graphlet grows toward later intervention points.
  void UpdateShapeColumns(const Graphlet& graphlet,
                          std::vector<double>* row) const;

  /// Cumulative pipeline cost by feature stage for this graphlet:
  /// [input, +pre-trainer, +trainer, +validation] (Table 3 accounting).
  std::array<double, 4> StageCosts(const Graphlet& graphlet) const;

  size_t rows_emitted() const { return rows_; }

 private:
  /// What later rows read of a committed graphlet.
  struct HistoryEntry {
    /// Input spans, sorted and deduplicated (Jaccard).
    std::vector<int64_t> sorted_spans;
    /// Input spans that have stats, in graphlet order, with their stats
    /// (dataset similarity; the calculator keeps their sketches).
    std::vector<int64_t> span_keys;
    std::vector<const dataspan::SpanStats*> spans;
    metadata::Timestamp trainer_start = 0;
    int64_t code_version = 0;
  };
  HistoryEntry EntryFor(const Graphlet& graphlet) const;
  double DatasetSimilarity(const HistoryEntry& a, const HistoryEntry& b);
  /// The span's stats, or null when the span has none (yet).
  const dataspan::SpanStats* FindSpan(metadata::ArtifactId id) const;

  const metadata::MetadataStore* store_;
  /// Exactly one of the two tables is set, by the constructor.
  const dataspan::SpanStatsTable* span_stats_ = nullptr;
  const std::unordered_map<metadata::ArtifactId, dataspan::SpanStats>*
      span_stats_by_value_ = nullptr;
  FeatureOptions options_;
  int window_;
  size_t num_columns_;
  similarity::SpanSimilarityCalculator calc_;
  /// Trailing means for the *_rel_1 deviation features.
  common::RunningStats jaccard_baseline_;
  common::RunningStats dsim_baseline_;
  /// The `window_` most recent graphlets, most recent last.
  std::deque<HistoryEntry> history_;
  /// The last Row's graphlet entry and lag-1 similarities, valid for an
  /// Advance of a graphlet with the same input spans before any other
  /// Advance (rows_ unchanged).
  struct Handoff {
    bool valid = false;
    size_t rows = 0;
    std::vector<metadata::ArtifactId> input_spans;
    HistoryEntry entry;
    double jaccard_1 = 0.0;
    double dsim_1 = 0.0;
  };
  Handoff handoff_;
  size_t rows_ = 0;
};

struct WasteDatasetOptions {
  FeatureOptions features;
};

/// Builds the waste-mitigation dataset from a segmented corpus. Fails
/// with InvalidArgument on unusable options (non-positive history
/// window, degenerate similarity weights).
common::StatusOr<WasteDataset> BuildWasteDataset(
    const sim::Corpus& corpus, const SegmentedCorpus& segmented,
    const WasteDatasetOptions& options = {});

}  // namespace mlprov::core

#endif  // MLPROV_CORE_FEATURES_H_
