#include "core/features.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#include "common/parallel.h"
#include "common/stats.h"

namespace mlprov::core {

using metadata::ExecutionType;

namespace {

/// Execution types with shape columns, in schema order: the pre-trainer
/// types, the Trainer, then the post-trainer validators (not the Pusher).
constexpr ExecutionType kShapeTypes[] = {
    ExecutionType::kExampleGen,     ExecutionType::kStatisticsGen,
    ExecutionType::kSchemaGen,      ExecutionType::kExampleValidator,
    ExecutionType::kTransform,      ExecutionType::kTuner,
    ExecutionType::kCustom,         ExecutionType::kTrainer,
    ExecutionType::kEvaluator,      ExecutionType::kModelValidator,
    ExecutionType::kInfraValidator};
constexpr size_t kNumShapeTypes = std::size(kShapeTypes);
constexpr size_t kTrainerShape = 7;
static_assert(kShapeTypes[kTrainerShape] == ExecutionType::kTrainer);

FeatureGroup ShapeGroup(size_t shape) {
  return shape < kTrainerShape    ? FeatureGroup::kShapePre
         : shape == kTrainerShape ? FeatureGroup::kShapeTrainer
                                  : FeatureGroup::kShapePost;
}

/// Index into kShapeTypes of each execution type; -1 for the Pusher and
/// for values outside the enum.
int ShapeOf(ExecutionType type) {
  static constexpr auto kIndex = [] {
    std::array<int, metadata::kNumExecutionTypes> index = {};
    index.fill(-1);
    for (size_t s = 0; s < kNumShapeTypes; ++s) {
      index[static_cast<size_t>(kShapeTypes[s])] = static_cast<int>(s);
    }
    return index;
  }();
  const auto t = static_cast<size_t>(type);
  return t < kIndex.size() ? kIndex[t] : -1;
}

/// Table 3 stage-cost class of an execution type: 0 input, 1
/// pre-trainer, 2 validation, -1 none (Trainer, Pusher).
int CostStage(ExecutionType type) {
  switch (type) {
    case ExecutionType::kExampleGen:
    case ExecutionType::kStatisticsGen:
    case ExecutionType::kSchemaGen:
    case ExecutionType::kExampleValidator:
      return 0;
    case ExecutionType::kTransform:
    case ExecutionType::kTuner:
    case ExecutionType::kCustom:
      return 1;
    case ExecutionType::kEvaluator:
    case ExecutionType::kModelValidator:
    case ExecutionType::kInfraValidator:
      return 2;
    default:
      return -1;
  }
}

}  // namespace

const char* ToString(FeatureGroup group) {
  switch (group) {
    case FeatureGroup::kModelInfo:
      return "model-info";
    case FeatureGroup::kInputData:
      return "input-data";
    case FeatureGroup::kCodeChange:
      return "code-change";
    case FeatureGroup::kShapePre:
      return "shape-pre";
    case FeatureGroup::kShapeTrainer:
      return "shape-trainer";
    case FeatureGroup::kShapePost:
      return "shape-post";
  }
  return "unknown";
}

std::vector<size_t> WasteDataset::ColumnsFor(
    const std::vector<FeatureGroup>& groups) const {
  std::vector<size_t> columns;
  for (FeatureGroup g : groups) {
    const auto& cols = group_columns[static_cast<size_t>(g)];
    columns.insert(columns.end(), cols.begin(), cols.end());
  }
  std::sort(columns.begin(), columns.end());
  columns.erase(std::unique(columns.begin(), columns.end()),
                columns.end());
  return columns;
}

GraphletFeaturizer::Schema GraphletFeaturizer::BuildSchema(
    const FeatureOptions& options) {
  Schema schema;
  const int window = std::max(1, options.history_window);
  auto add_column = [&](FeatureGroup group, const std::string& name) {
    schema.group_columns[static_cast<size_t>(group)].push_back(
        schema.names.size());
    schema.names.push_back(name);
  };
  for (int t = 0; t < metadata::kNumModelTypes; ++t) {
    add_column(FeatureGroup::kModelInfo,
               std::string("model_type_") +
                   metadata::ToString(static_cast<metadata::ModelType>(t)));
  }
  for (int a = 0; a < 5; ++a) {
    add_column(FeatureGroup::kModelInfo,
               "architecture_" + std::to_string(a));
  }
  for (int l = 1; l <= window; ++l) {
    add_column(FeatureGroup::kInputData, "jaccard_" + std::to_string(l));
    add_column(FeatureGroup::kInputData,
               "dataset_sim_" + std::to_string(l));
  }
  // Deviation of the lag-1 similarities from their trailing per-pipeline
  // baseline: pipelines differ in their similarity *levels* (feature
  // composition drives the hash-collision base rate), so the deviation
  // is the portable signal.
  add_column(FeatureGroup::kInputData, "jaccard_rel_1");
  add_column(FeatureGroup::kInputData, "dataset_sim_rel_1");
  // Hours since the previous trainer started: ~0 for parallel A/B
  // siblings of the same trigger (whose inputs are identical by design),
  // larger for genuine retrains. Metadata-only, available at ingestion.
  add_column(FeatureGroup::kInputData, "prev_trainer_gap_hours");
  for (int l = 1; l <= window; ++l) {
    add_column(FeatureGroup::kCodeChange,
               "code_match_" + std::to_string(l));
  }
  for (size_t s = 0; s < kNumShapeTypes; ++s) {
    const std::string base = metadata::ToString(kShapeTypes[s]);
    add_column(ShapeGroup(s), base + "_count");
    add_column(ShapeGroup(s), base + "_avg_in");
    add_column(ShapeGroup(s), base + "_avg_out");
  }
  return schema;
}

GraphletFeaturizer::GraphletFeaturizer(
    const metadata::MetadataStore* store,
    const dataspan::SpanStatsTable* span_stats, const FeatureOptions& options)
    : store_(store),
      span_stats_(span_stats),
      options_(options),
      window_(std::max(1, options.history_window)),
      calc_(options.similarity.feature_options) {
  num_columns_ = BuildSchema(options_).names.size();
}

GraphletFeaturizer::GraphletFeaturizer(
    const metadata::MetadataStore* store,
    const std::unordered_map<metadata::ArtifactId, dataspan::SpanStats>*
        span_stats,
    const FeatureOptions& options)
    : GraphletFeaturizer(store, static_cast<const dataspan::SpanStatsTable*>(
                                    nullptr),
                         options) {
  span_stats_by_value_ = span_stats;
}

const dataspan::SpanStats* GraphletFeaturizer::FindSpan(
    metadata::ArtifactId id) const {
  if (span_stats_by_value_ != nullptr) {
    auto it = span_stats_by_value_->find(id);
    return it == span_stats_by_value_->end() ? nullptr : &it->second;
  }
  auto it = span_stats_->find(id);
  return it == span_stats_->end() ? nullptr : it->second.get();
}

GraphletFeaturizer::HistoryEntry GraphletFeaturizer::EntryFor(
    const Graphlet& g) const {
  HistoryEntry entry;
  entry.sorted_spans.assign(g.input_spans.begin(), g.input_spans.end());
  std::sort(entry.sorted_spans.begin(), entry.sorted_spans.end());
  entry.sorted_spans.erase(
      std::unique(entry.sorted_spans.begin(), entry.sorted_spans.end()),
      entry.sorted_spans.end());
  for (metadata::ArtifactId id : g.input_spans) {
    const dataspan::SpanStats* stats = FindSpan(id);
    if (stats == nullptr) continue;
    entry.span_keys.push_back(id);
    entry.spans.push_back(stats);
  }
  return entry;
}

double GraphletFeaturizer::DatasetSimilarity(const HistoryEntry& a,
                                             const HistoryEntry& b) {
  // Eq. 3 over the spans that have stats, as GraphletDatasetSimilarity.
  return calc_.SequenceSimilarity(a.spans, a.span_keys, b.spans, b.span_keys,
                                  options_.similarity.positional_features);
}

std::vector<double> GraphletFeaturizer::Row(const Graphlet& g) {
  std::vector<double> row(num_columns_, 0.0);
  size_t col = 0;
  // Model info one-hots.
  for (int t = 0; t < metadata::kNumModelTypes; ++t) {
    row[col++] = static_cast<int>(g.model_type) == t ? 1.0 : 0.0;
  }
  for (int a = 0; a < 5; ++a) {
    row[col++] = g.architecture == a ? 1.0 : 0.0;
  }
  // History features (history_.back() is lag 1).
  HistoryEntry entry = EntryFor(g);
  double jaccard_1 = 0.0, dsim_1 = 0.0;
  for (int l = 1; l <= window_; ++l) {
    if (history_.size() >= static_cast<size_t>(l)) {
      const HistoryEntry& prev =
          history_[history_.size() - static_cast<size_t>(l)];
      const double jaccard = similarity::SortedJaccardSimilarity(
          entry.sorted_spans, prev.sorted_spans);
      const double dsim = DatasetSimilarity(entry, prev);
      row[col++] = jaccard;
      row[col++] = dsim;
      if (l == 1) {
        jaccard_1 = jaccard;
        dsim_1 = dsim;
      }
    } else {
      row[col++] = 0.0;
      row[col++] = 0.0;
    }
  }
  row[col++] = jaccard_baseline_.count()
                   ? jaccard_1 - jaccard_baseline_.mean()
                   : 0.0;
  row[col++] = dsim_baseline_.count() ? dsim_1 - dsim_baseline_.mean() : 0.0;
  row[col++] =
      !history_.empty()
          ? std::min(1000.0,
                     static_cast<double>(g.trainer_start -
                                         history_.back().trainer_start) /
                         3600.0)
          : 0.0;
  for (int l = 1; l <= window_; ++l) {
    if (history_.size() >= static_cast<size_t>(l)) {
      const HistoryEntry& prev =
          history_[history_.size() - static_cast<size_t>(l)];
      row[col++] = g.code_version == prev.code_version ? 1.0 : 0.0;
    } else {
      row[col++] = 1.0;
    }
  }
  // Shape features (the trailing columns of the schema).
  UpdateShapeColumns(g, &row);
  handoff_.valid = true;
  handoff_.rows = rows_;
  handoff_.input_spans.assign(g.input_spans.begin(), g.input_spans.end());
  handoff_.entry = std::move(entry);
  handoff_.jaccard_1 = jaccard_1;
  handoff_.dsim_1 = dsim_1;
  return row;
}

void GraphletFeaturizer::UpdateShapeColumns(
    const Graphlet& g, std::vector<double>* row) const {
  // One pass; each type's sums accumulate in execution order, as a
  // per-type pass would.
  std::array<double, kNumShapeTypes> count = {}, in_sum = {}, out_sum = {};
  for (metadata::ExecutionId id : g.executions) {
    const int shape =
        ShapeOf(store_->executions()[static_cast<size_t>(id) - 1].type);
    if (shape < 0) continue;
    const auto s = static_cast<size_t>(shape);
    count[s] += 1.0;
    in_sum[s] += static_cast<double>(store_->InputsOf(id).size());
    out_sum[s] += static_cast<double>(store_->OutputsOf(id).size());
  }
  size_t col = num_columns_ - kNumShapeTypes * 3;
  for (size_t s = 0; s < kNumShapeTypes; ++s) {
    (*row)[col++] = count[s];
    (*row)[col++] = count[s] > 0.0 ? in_sum[s] / count[s] : 0.0;
    (*row)[col++] = count[s] > 0.0 ? out_sum[s] / count[s] : 0.0;
  }
}

void GraphletFeaturizer::Advance(const Graphlet& g) {
  // Row(g) has just computed g's entry and its lag-1 similarities
  // against this same history: take them. Any other graphlet, or a
  // history advanced since, computes them here.
  const bool handoff = handoff_.valid && handoff_.rows == rows_ &&
                       handoff_.input_spans == g.input_spans;
  HistoryEntry entry = handoff ? std::move(handoff_.entry) : EntryFor(g);
  handoff_.valid = false;
  entry.trainer_start = g.trainer_start;
  entry.code_version = g.code_version;
  if (!history_.empty()) {
    const HistoryEntry& prev = history_.back();
    jaccard_baseline_.Add(handoff ? handoff_.jaccard_1
                                  : similarity::SortedJaccardSimilarity(
                                        entry.sorted_spans, prev.sorted_spans));
    dsim_baseline_.Add(handoff ? handoff_.dsim_1
                               : DatasetSimilarity(entry, prev));
  }
  history_.push_back(std::move(entry));
  if (history_.size() > static_cast<size_t>(window_)) history_.pop_front();
  ++rows_;
}

std::array<double, 4> GraphletFeaturizer::StageCosts(
    const Graphlet& g) const {
  // Ingestion + data analysis run once per span and are shared by all
  // graphlets touching the window; amortize them per graphlet so the
  // Table 3 feature-cost column reflects the *incremental* cost of
  // reaching each intervention point.
  const double span_share =
      1.0 /
      static_cast<double>(std::max<size_t>(1, g.input_spans.size()));
  // One pass; each stage's sum accumulates in execution order.
  std::array<double, 3> stage = {};
  for (metadata::ExecutionId id : g.executions) {
    const auto& e = store_->executions()[static_cast<size_t>(id) - 1];
    const int s = CostStage(e.type);
    if (s >= 0) stage[static_cast<size_t>(s)] += e.compute_cost;
  }
  std::array<double, 4> costs = {};
  costs[0] = stage[0] * span_share;
  costs[1] = costs[0] + stage[1];
  costs[2] = costs[1] + g.trainer_cost;
  costs[3] = costs[2] + stage[2];
  return costs;
}

common::StatusOr<WasteDataset> BuildWasteDataset(
    const sim::Corpus& corpus, const SegmentedCorpus& segmented,
    const WasteDatasetOptions& options) {
  const FeatureOptions& features = options.features;
  if (features.history_window < 1) {
    return common::Status::InvalidArgument(
        "history_window must be >= 1, got " +
        std::to_string(features.history_window));
  }
  const auto& sim_weights = features.similarity.feature_options;
  if (sim_weights.alpha + sim_weights.beta <= 0.0) {
    return common::Status::InvalidArgument(
        "similarity weights alpha + beta must be > 0");
  }
  WasteDataset out;
  GraphletFeaturizer::Schema schema =
      GraphletFeaturizer::BuildSchema(features);
  out.group_columns = schema.group_columns;
  out.data = ml::Dataset(schema.names);

  // Feature rows are built per pipeline in parallel (the EMD similarity
  // lags dominate), then appended to the dataset sequentially in pipeline
  // order so row order and every derived statistic match the sequential
  // build exactly. Each pipeline replays its graphlets through a fresh
  // GraphletFeaturizer — the same incremental path the streaming online
  // scorer uses.
  struct PipelineBlock {
    std::vector<std::vector<double>> rows;
    std::vector<int> labels;
    std::vector<double> total_cost;
    std::array<std::vector<double>, 4> stage_cost;
    bool counted = false;
  };
  std::vector<PipelineBlock> blocks(segmented.pipelines.size());
  common::ParallelFor(
      segmented.pipelines.size(),
      [&](size_t p) {
        const SegmentedPipeline& sp = segmented.pipelines[p];
        PipelineBlock& block = blocks[p];
        const sim::PipelineTrace& trace =
            corpus.pipelines[sp.pipeline_index];
        if (features.exclude_warmstart_pipelines &&
            trace.config.warm_start) {
          return;
        }
        if (sp.graphlets.empty()) return;
        block.counted = true;
        GraphletFeaturizer featurizer(&trace.store, &trace.span_stats,
                                      features);
        for (const Graphlet& g : sp.graphlets) {
          block.rows.push_back(featurizer.NextRow(g));
          block.labels.push_back(g.pushed ? 1 : 0);
          block.total_cost.push_back(g.TotalCost());
          const std::array<double, 4> costs = featurizer.StageCosts(g);
          for (int s = 0; s < 4; ++s) {
            block.stage_cost[s].push_back(costs[s]);
          }
        }
      },
      /*grain=*/1);
  for (size_t p = 0; p < blocks.size(); ++p) {
    const PipelineBlock& block = blocks[p];
    if (!block.counted) continue;
    ++out.num_pipelines;
    const auto group =
        static_cast<int64_t>(segmented.pipelines[p].pipeline_index);
    for (size_t r = 0; r < block.rows.size(); ++r) {
      out.data.AddRow(block.rows[r], block.labels[r], group);
      out.total_cost.push_back(block.total_cost[r]);
      for (int s = 0; s < 4; ++s) {
        out.stage_cost[s].push_back(block.stage_cost[s][r]);
      }
    }
  }
  return out;
}

}  // namespace mlprov::core
