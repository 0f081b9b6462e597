// Regression test for the parallel execution backbone's core contract:
// generating and analyzing a corpus at --threads=1, 4, and 8 must produce
// byte-identical serialized pipelines and bit-identical reported
// statistics (ISSUE 2 / DESIGN.md "Parallelism & determinism").
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/graphlet_analysis.h"
#include "metadata/serialization.h"
#include "obs/metrics.h"
#include "simulator/corpus_generator.h"

namespace mlprov {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Everything the analyses report, rendered to one string: per-pipeline
/// serialized stores, sampled configs, span statistics, and the Table 1
/// similarity values. Two runs are equivalent iff the strings are equal.
std::string RunFingerprint(const sim::Corpus& corpus,
                           const core::SegmentedCorpus& segmented,
                           const core::SimilarityTable& table) {
  std::string fp;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    fp += metadata::SerializeStore(trace.store);
    fp += "config ";
    fp += std::to_string(trace.config.pipeline_id) + " " +
          std::to_string(trace.config.seed) + " " +
          FormatDouble(trace.config.lifespan_days) + " " +
          FormatDouble(trace.config.triggers_per_day) + " " +
          std::to_string(trace.config.num_features) + "\n";
    for (const auto& [artifact, stats] : trace.span_stats) {
      fp += "span " + std::to_string(artifact) + " " +
            std::to_string(stats->span_number) + " " +
            std::to_string(stats->NumFeatures()) + "\n";
    }
  }
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    fp += "graphlets " + std::to_string(sp.pipeline_index) + " " +
          std::to_string(sp.graphlets.size()) + "\n";
  }
  fp += "pairs " + std::to_string(table.num_pairs) + "\n";
  fp += "jaccard_mean " + FormatDouble(table.jaccard_mean) + "\n";
  fp += "dataset_mean " + FormatDouble(table.dataset_mean) + "\n";
  fp += "avg_dataset_mean " + FormatDouble(table.avg_dataset_mean) + "\n";
  for (const double h : table.jaccard_hist) {
    fp += "jh " + FormatDouble(h) + "\n";
  }
  for (const double h : table.dataset_hist) {
    fp += "dh " + FormatDouble(h) + "\n";
  }
  return fp;
}

/// The simulator/analysis counters whose values must not depend on the
/// thread count (they count work items, not scheduling).
const char* kInvariantCounters[] = {
    "sim.pipelines_generated", "sim.qualify_retries", "sim.executions",
    "sim.artifacts",           "sim.trainers",        "sim.triggers",
    "sim.spans_ingested",      "sim.graphlets_pushed",
    "sim.graphlets_wasted",    "core.graphlets_segmented"};

struct RunResult {
  std::string fingerprint;
  std::map<std::string, uint64_t> counters;
};

RunResult RunAtThreads(int threads) {
  common::SetGlobalThreads(threads);
  obs::Registry::Global().Reset();
  sim::CorpusConfig config;
  config.num_pipelines = 40;
  config.seed = 2024;
  config.horizon_days = 60.0;
  const sim::Corpus corpus = sim::GenerateCorpus(config);
  const core::SegmentedCorpus segmented = core::SegmentCorpus(corpus);
  const core::SimilarityTable table =
      core::ComputeSimilarityTable(corpus, segmented);
  RunResult result;
  result.fingerprint = RunFingerprint(corpus, segmented, table);
  for (const char* name : kInvariantCounters) {
    result.counters[name] =
        obs::Registry::Global().GetCounter(name)->Value();
  }
  common::SetGlobalThreads(1);
  return result;
}

TEST(ParallelDeterminismTest, CorpusAndAnalysisIdenticalAcrossThreadCounts) {
  const RunResult baseline = RunAtThreads(1);
  ASSERT_FALSE(baseline.fingerprint.empty());
  for (const int threads : {4, 8}) {
    const RunResult run = RunAtThreads(threads);
    EXPECT_EQ(run.fingerprint, baseline.fingerprint)
        << "corpus/analysis diverged at threads=" << threads;
    EXPECT_EQ(run.counters, baseline.counters)
        << "work counters diverged at threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, RepeatedRunsIdenticalAtSameThreadCount) {
  const RunResult a = RunAtThreads(4);
  const RunResult b = RunAtThreads(4);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.counters, b.counters);
}

}  // namespace
}  // namespace mlprov
