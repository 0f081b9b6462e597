#include "core/graphlet_analysis.h"

#include <algorithm>
#include <utility>

#include "common/parallel.h"
#include "common/stats.h"
#include "metadata/trace_validator.h"
#include "metadata/types.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "stream/replay.h"
#include "stream/session.h"

namespace mlprov::core {

using metadata::kSecondsPerHour;

size_t SegmentedCorpus::TotalGraphlets() const {
  size_t total = 0;
  for (const SegmentedPipeline& p : pipelines) total += p.graphlets.size();
  return total;
}

size_t SegmentedCorpus::TotalPushed() const {
  size_t total = 0;
  for (const SegmentedPipeline& p : pipelines) {
    for (const Graphlet& g : p.graphlets) total += g.pushed ? 1 : 0;
  }
  return total;
}

size_t SegmentedCorpus::TotalQuarantined() const {
  size_t total = 0;
  for (const SegmentedPipeline& p : pipelines) {
    total += p.quarantined_graphlets;
  }
  return total;
}

size_t QuarantineTrace(const metadata::MetadataStore& store,
                       const metadata::ValidationReport& report,
                       size_t pipeline_index) {
  // The event graph or node vocabulary cannot be trusted: callers skip
  // segmentation entirely and count the trainers they would have
  // anchored graphlets on.
  const size_t quarantined =
      store.ExecutionsOfType(metadata::ExecutionType::kTrainer).size();
#ifndef MLPROV_OBS_NOOP
  // Quarantine is a flight-recorder trigger: persist what the
  // validator saw so the post-mortem names the trace and issues
  // (no-op without a --flight_recorder= directory).
  if (!obs::FlightRecorderDir().empty()) {
    obs::FlightRecorder flight("quarantine_p" +
                               std::to_string(pipeline_index));
    obs::Json detail = obs::Json::Object();
    detail.Set("pipeline_index", static_cast<uint64_t>(pipeline_index));
    detail.Set("quarantined_graphlets", static_cast<uint64_t>(quarantined));
    obs::Json issues = obs::Json::Array();
    for (const metadata::TraceIssue& issue : report.issues) {
      issues.Push(issue.detail);
    }
    detail.Set("issues", std::move(issues));
    flight.NoteError("trace quarantined: " + report.Summary(),
                     std::move(detail));
    (void)flight.Dump();
  }
#else
  (void)report;
  (void)pipeline_index;
#endif
  return quarantined;
}

size_t DropTruncatedGraphlets(const metadata::MetadataStore& store,
                              std::vector<Graphlet>& graphlets) {
  auto bad = std::remove_if(
      graphlets.begin(), graphlets.end(),
      [&](const Graphlet& g) { return store.InputsOf(g.trainer).empty(); });
  const size_t dropped = static_cast<size_t>(graphlets.end() - bad);
  graphlets.erase(bad, graphlets.end());
  return dropped;
}

SegmentedCorpus SegmentCorpus(const sim::Corpus& corpus) {
  SegmentedCorpus segmented;
  segmented.pipelines.resize(corpus.pipelines.size());
  // Each pipeline segments into its own slot; SegmentTrace owns all its
  // scratch state, so traces are independent. Grain 1: trace sizes vary
  // by orders of magnitude across the corpus.
  const metadata::TraceValidator validator;
  common::ParallelFor(
      corpus.pipelines.size(),
      [&](size_t i) {
        SegmentedPipeline& sp = segmented.pipelines[i];
        sp.pipeline_index = i;
        const metadata::MetadataStore& store = corpus.pipelines[i].store;
        const metadata::ValidationReport report = validator.Validate(store);
        if (report.NeedsQuarantine()) {
          sp.quarantined_graphlets = QuarantineTrace(store, report, i);
          return;
        }
        // Batch segmentation is a replay of the trace through the
        // streaming session — the batch surface is a thin wrapper over
        // the incremental one, and the session's Finish() is guaranteed
        // byte-identical to SegmentTrace. Traces that pass validation
        // but still violate the feed contract fall back to the direct
        // batch path (same result by the identity guarantee).
        stream::ProvenanceSession session;
        if (stream::ReplayTrace(corpus.pipelines[i], session).ok()) {
          auto result = session.Finish();
          sp.graphlets = std::move(result.value().graphlets);
        } else {
          sp.graphlets = SegmentTrace(store);
        }
        if (report.truncated_graphlets > 0) {
          sp.quarantined_graphlets =
              DropTruncatedGraphlets(store, sp.graphlets);
        }
      },
      /*grain=*/1);
  // Counter bump is sequential (after the join) so the tally is exact
  // and thread-count independent.
  if (const size_t quarantined = segmented.TotalQuarantined();
      quarantined > 0) {
    MLPROV_COUNTER_ADD("trace.quarantined", quarantined);
  }
  return segmented;
}

double GraphletJaccard(const Graphlet& a, const Graphlet& b) {
  std::vector<int64_t> sa(a.input_spans.begin(), a.input_spans.end());
  std::vector<int64_t> sb(b.input_spans.begin(), b.input_spans.end());
  return similarity::JaccardSimilarity(std::move(sa), std::move(sb));
}

double GraphletDatasetSimilarity(
    const sim::PipelineTrace& trace, const Graphlet& a, const Graphlet& b,
    similarity::SpanSimilarityCalculator& calc, bool positional_features) {
  return GraphletDatasetSimilarity(trace.span_stats, a, b, calc,
                                   positional_features);
}

double GraphletDatasetSimilarity(const dataspan::SpanStatsTable& span_stats,
                                 const Graphlet& a, const Graphlet& b,
                                 similarity::SpanSimilarityCalculator& calc,
                                 bool positional_features) {
  std::vector<const dataspan::SpanStats*> spans_a, spans_b;
  std::vector<int64_t> keys_a, keys_b;
  for (metadata::ArtifactId id : a.input_spans) {
    auto it = span_stats.find(id);
    if (it == span_stats.end()) continue;
    spans_a.push_back(it->second.get());
    keys_a.push_back(id);
  }
  for (metadata::ArtifactId id : b.input_spans) {
    auto it = span_stats.find(id);
    if (it == span_stats.end()) continue;
    spans_b.push_back(it->second.get());
    keys_b.push_back(id);
  }
  return calc.SequenceSimilarity(spans_a, keys_a, spans_b, keys_b,
                                 positional_features);
}

namespace {

/// Index into the paper's four similarity ranges.
size_t RangeBucket(double v) {
  if (v <= 0.25) return 0;
  if (v <= 0.5) return 1;
  if (v <= 0.75) return 2;
  return 3;
}

void NormalizeHist(std::array<double, 4>& hist) {
  double total = 0.0;
  for (double h : hist) total += h;
  if (total <= 0.0) return;
  for (double& h : hist) h /= total;
}

}  // namespace

SimilarityTable ComputeSimilarityTable(const sim::Corpus& corpus,
                                       const SegmentedCorpus& segmented,
                                       const SimilarityOptions& options) {
  SimilarityTable table;
  // Phase 1 (parallel): per-pipeline pairwise similarity values into
  // indexed slots. Phase 2 (sequential, pipeline order): the exact
  // histogram/RunningStats accumulation the old single-loop code did, so
  // every reported float is bit-identical at any thread count.
  struct PipelinePairs {
    std::vector<double> jaccard;
    std::vector<double> dataset;
  };
  std::vector<PipelinePairs> partials(segmented.pipelines.size());
  common::ParallelFor(
      segmented.pipelines.size(),
      [&](size_t p) {
        const SegmentedPipeline& sp = segmented.pipelines[p];
        const sim::PipelineTrace& trace =
            corpus.pipelines[sp.pipeline_index];
        if (sp.graphlets.size() < 2) return;
        similarity::SpanSimilarityCalculator calc(options.feature_options);
        size_t pairs = sp.graphlets.size() - 1;
        if (options.max_pairs_per_pipeline > 0) {
          pairs = std::min(pairs, options.max_pairs_per_pipeline);
        }
        PipelinePairs& out = partials[p];
        out.jaccard.reserve(pairs);
        out.dataset.reserve(pairs);
        for (size_t i = 0; i < pairs; ++i) {
          const Graphlet& g = sp.graphlets[i];
          const Graphlet& next = sp.graphlets[i + 1];
          out.jaccard.push_back(GraphletJaccard(g, next));
          out.dataset.push_back(
              GraphletDatasetSimilarity(trace, g, next, calc));
        }
      },
      /*grain=*/1);
  common::RunningStats jaccard_stats, dataset_stats, avg_dataset_stats;
  for (const PipelinePairs& pp : partials) {
    common::RunningStats pipeline_dataset;
    for (size_t i = 0; i < pp.jaccard.size(); ++i) {
      const double jaccard = pp.jaccard[i];
      table.jaccard_hist[RangeBucket(jaccard)] += 1.0;
      jaccard_stats.Add(jaccard);
      const double dataset = pp.dataset[i];
      table.dataset_hist[RangeBucket(dataset)] += 1.0;
      dataset_stats.Add(dataset);
      pipeline_dataset.Add(dataset);
      ++table.num_pairs;
    }
    if (pipeline_dataset.count() > 0) {
      const double avg = pipeline_dataset.mean();
      table.avg_dataset_hist[RangeBucket(avg)] += 1.0;
      avg_dataset_stats.Add(avg);
    }
  }
  NormalizeHist(table.jaccard_hist);
  NormalizeHist(table.dataset_hist);
  NormalizeHist(table.avg_dataset_hist);
  table.jaccard_mean = jaccard_stats.mean();
  table.dataset_mean = dataset_stats.mean();
  table.avg_dataset_mean = avg_dataset_stats.mean();
  return table;
}

PushStats ComputePushStats(const SegmentedCorpus& segmented) {
  PushStats stats;
  std::array<size_t, metadata::kNumModelTypes> pushed_by_type = {};
  for (const SegmentedPipeline& sp : segmented.pipelines) {
    const auto& graphlets = sp.graphlets;
    if (graphlets.empty()) continue;
    common::RunningStats gap_all, gap_pushed;
    metadata::Timestamp last_trainer_end = -1;
    metadata::Timestamp last_pushed_end = -1;
    int unpushed_since_push = 0;
    bool seen_push = false;
    for (const Graphlet& g : graphlets) {
      ++stats.total_graphlets;
      const auto type = static_cast<size_t>(g.model_type);
      ++stats.graphlets_by_type[type];
      stats.duration_hours.push_back(
          static_cast<double>(g.DurationSeconds()) / kSecondsPerHour);
      if (last_trainer_end >= 0) {
        gap_all.Add(static_cast<double>(g.trainer_end - last_trainer_end) /
                    kSecondsPerHour);
      }
      last_trainer_end = g.trainer_end;
      if (g.pushed) {
        ++stats.pushed_graphlets;
        ++pushed_by_type[type];
        stats.train_cost_pushed.push_back(g.trainer_cost);
        if (last_pushed_end >= 0) {
          gap_pushed.Add(
              static_cast<double>(g.trainer_end - last_pushed_end) /
              kSecondsPerHour);
        }
        last_pushed_end = g.trainer_end;
        if (seen_push) {
          stats.graphlets_between_pushes.push_back(
              static_cast<double>(unpushed_since_push));
        }
        unpushed_since_push = 0;
        seen_push = true;
      } else {
        stats.train_cost_unpushed.push_back(g.trainer_cost);
        if (seen_push) ++unpushed_since_push;
      }
    }
    if (gap_all.count() > 0) stats.gap_hours_all.push_back(gap_all.mean());
    if (gap_pushed.count() > 0) {
      stats.gap_hours_pushed.push_back(gap_pushed.mean());
    }
  }
  for (size_t t = 0; t < stats.push_rate_by_type.size(); ++t) {
    if (stats.graphlets_by_type[t] > 0) {
      stats.push_rate_by_type[t] =
          static_cast<double>(pushed_by_type[t]) /
          static_cast<double>(stats.graphlets_by_type[t]);
    }
  }
  return stats;
}

double PushStats::UnpushedFraction() const {
  if (total_graphlets == 0) return 0.0;
  return 1.0 - static_cast<double>(pushed_graphlets) /
                   static_cast<double>(total_graphlets);
}

WasteEstimate EstimateWaste(const sim::Corpus& corpus,
                            const SegmentedCorpus& segmented,
                            double overlappable_cost_share) {
  WasteEstimate estimate;
  double total_cost = 0.0, unpushed_cost = 0.0;
  size_t total = 0, unpushed = 0, warmstart = 0;
  for (const SegmentedPipeline& sp : segmented.pipelines) {
    const bool pipeline_warmstarts =
        corpus.pipelines[sp.pipeline_index].config.warm_start;
    for (const Graphlet& g : sp.graphlets) {
      ++total;
      total_cost += g.TotalCost();
      if (pipeline_warmstarts) ++warmstart;
      if (!g.pushed) {
        ++unpushed;
        if (!pipeline_warmstarts) unpushed_cost += g.TotalCost();
      }
    }
  }
  if (total == 0 || total_cost <= 0.0) return estimate;
  estimate.unpushed_fraction =
      static_cast<double>(unpushed) / static_cast<double>(total);
  estimate.unpushed_cost_fraction = unpushed_cost / total_cost;
  estimate.warmstart_graphlet_share =
      static_cast<double>(warmstart) / static_cast<double>(total);
  // Paper's discounting: remove warm-start pipelines' graphlets entirely
  // and assume `overlappable_cost_share` of the remaining unpushed cost
  // could be shared with other graphlets.
  estimate.conservative_waste =
      estimate.unpushed_cost_fraction * (1.0 - overlappable_cost_share);
  return estimate;
}

common::StatusOr<PushDriverStats> ComputePushDrivers(
    const sim::Corpus& corpus, const SegmentedCorpus& segmented,
    const PushDriverOptions& push_options) {
  const SimilarityOptions& options = push_options.similarity;
  if (options.feature_options.alpha + options.feature_options.beta <= 0.0) {
    return common::Status::InvalidArgument(
        "similarity weights alpha + beta must be > 0");
  }
  PushDriverStats stats;
  // Same two-phase shape as ComputeSimilarityTable: the EMD-heavy pair
  // similarities run per pipeline in parallel, then the RunningStats are
  // accumulated sequentially in pipeline order for bit-identical means.
  struct PairDriver {
    double sim = 0.0;
    double code_match = 0.0;
    bool pushed = false;
  };
  std::vector<std::vector<PairDriver>> partials(segmented.pipelines.size());
  common::ParallelFor(
      segmented.pipelines.size(),
      [&](size_t p) {
        const SegmentedPipeline& sp = segmented.pipelines[p];
        if (sp.graphlets.size() < 2) return;
        const sim::PipelineTrace& trace =
            corpus.pipelines[sp.pipeline_index];
        similarity::SpanSimilarityCalculator calc(options.feature_options);
        size_t pairs = sp.graphlets.size() - 1;
        if (options.max_pairs_per_pipeline > 0) {
          pairs = std::min(pairs, options.max_pairs_per_pipeline);
        }
        std::vector<PairDriver>& out = partials[p];
        out.reserve(pairs);
        for (size_t i = 0; i < pairs; ++i) {
          const Graphlet& prev = sp.graphlets[i];
          const Graphlet& g = sp.graphlets[i + 1];
          PairDriver d;
          d.sim = GraphletDatasetSimilarity(trace, g, prev, calc);
          d.code_match = g.code_version == prev.code_version ? 1.0 : 0.0;
          d.pushed = g.pushed;
          out.push_back(d);
        }
      },
      /*grain=*/1);
  common::RunningStats sim_pushed, sim_unpushed, sim_all;
  common::RunningStats code_pushed, code_unpushed, code_all;
  for (const std::vector<PairDriver>& pipeline_pairs : partials) {
    for (const PairDriver& d : pipeline_pairs) {
      sim_all.Add(d.sim);
      code_all.Add(d.code_match);
      if (d.pushed) {
        sim_pushed.Add(d.sim);
        code_pushed.Add(d.code_match);
      } else {
        sim_unpushed.Add(d.sim);
        code_unpushed.Add(d.code_match);
      }
    }
  }
  stats.input_similarity_pushed = sim_pushed.mean();
  stats.input_similarity_unpushed = sim_unpushed.mean();
  stats.input_similarity_all = sim_all.mean();
  stats.code_match_pushed = code_pushed.mean();
  stats.code_match_unpushed = code_unpushed.mean();
  stats.code_match_all = code_all.mean();
  return stats;
}

}  // namespace mlprov::core
