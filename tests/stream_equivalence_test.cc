#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoints.h"
#include "common/parallel.h"
#include "core/segmentation.h"
#include "metadata/serialization.h"
#include "simulator/corpus_generator.h"
#include "simulator/pipeline_simulator.h"
#include "simulator/provenance_sink.h"
#include "stream/fingerprint.h"
#include "stream/replay.h"
#include "stream/session.h"

namespace mlprov::stream {
namespace {

sim::CorpusConfig SmallConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 12;
  config.seed = 777;
  config.horizon_days = 45.0;
  return config;
}

sim::CorpusConfig FaultyConfig() {
  sim::CorpusConfig config = SmallConfig();
  config.seed = 778;
  auto plan = common::FaultPlan::Parse(
      "exec.trainer:transient:0.2,exec.pusher:persistent:0.1,"
      "exec.transform:transient:0.05");
  EXPECT_TRUE(plan.ok());
  config.fault_plan = *plan;
  config.max_retries = 2;
  return config;
}

sim::CorpusConfig CachedConfig() {
  sim::CorpusConfig config = SmallConfig();
  config.seed = 779;
  config.cache_policy = sim::CachePolicy::kLru;
  config.cache_capacity = 64;
  return config;
}

/// Replays every trace of the corpus through a fresh session and checks
/// the result against batch SegmentTrace, graphlet for graphlet.
void ExpectStreamingMatchesBatch(const sim::Corpus& corpus) {
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    std::vector<core::Graphlet> batch = core::SegmentTrace(trace.store);

    ProvenanceSession session;
    ASSERT_TRUE(ReplayTrace(trace, session).ok());
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();

    EXPECT_EQ(FingerprintGraphlets(result->graphlets),
              FingerprintGraphlets(batch));
    ASSERT_EQ(result->graphlets.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(result->graphlets[i].trainer, batch[i].trainer);
      EXPECT_EQ(result->graphlets[i].executions, batch[i].executions);
      EXPECT_EQ(result->graphlets[i].artifacts, batch[i].artifacts);
      EXPECT_EQ(result->graphlets[i].input_spans, batch[i].input_spans);
      EXPECT_EQ(result->graphlets[i].pushed, batch[i].pushed);
    }
    // The replicated store is byte-identical to the original.
    EXPECT_EQ(metadata::SerializeStore(session.store()),
              metadata::SerializeStore(trace.store));
    EXPECT_EQ(session.span_stats().size(), trace.span_stats.size());
    // Shared, not copied: the session holds the trace's own objects.
    for (const auto& [id, stats] : trace.span_stats) {
      const auto it = session.span_stats().find(id);
      ASSERT_NE(it, session.span_stats().end()) << "span " << id;
      EXPECT_EQ(it->second.get(), stats.get()) << "span " << id;
    }
  }
}

TEST(StreamEquivalenceTest, PlainCorpusMatchesBatch) {
  ExpectStreamingMatchesBatch(sim::GenerateCorpus(SmallConfig()));
}

TEST(StreamEquivalenceTest, FaultyCorpusMatchesBatch) {
  ExpectStreamingMatchesBatch(sim::GenerateCorpus(FaultyConfig()));
}

TEST(StreamEquivalenceTest, LruCachedCorpusMatchesBatch) {
  ExpectStreamingMatchesBatch(sim::GenerateCorpus(CachedConfig()));
}

TEST(StreamEquivalenceTest, LiveSinkFeedMatchesReplayFeed) {
  // A session attached live to the simulator (records arrive in
  // per-trigger chunks) must see the byte-identical feed a post-hoc
  // replay of the finished trace produces.
  sim::CorpusConfig config = SmallConfig();
  config.num_pipelines = 4;
  const sim::Corpus corpus = sim::GenerateCorpus(config);
  const sim::CostModel cost_model;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    ProvenanceSession live;
    sim::PipelineTrace relived = sim::SimulatePipeline(
        corpus.config, trace.config, cost_model, &live);
    ASSERT_TRUE(live.status().ok()) << live.status();

    ProvenanceSession replayed;
    ASSERT_TRUE(ReplayTrace(relived, replayed).ok());

    EXPECT_EQ(live.stats().records, replayed.stats().records);
    auto live_result = live.Finish();
    auto replay_result = replayed.Finish();
    ASSERT_TRUE(live_result.ok());
    ASSERT_TRUE(replay_result.ok());
    EXPECT_EQ(FingerprintGraphlets(live_result->graphlets),
              FingerprintGraphlets(replay_result->graphlets));
    EXPECT_EQ(FingerprintGraphlets(live_result->graphlets),
              FingerprintGraphlets(core::SegmentTrace(relived.store)));
  }
}

TEST(StreamEquivalenceTest, SealedGraphletsSurviveUnchangedToFinish) {
  // Watermark sealing must never change the final result; a sealed
  // graphlet either stays as extracted or is resealed after late events.
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    SessionOptions options;
    options.segmenter.seal_grace_hours = 24.0;  // seal aggressively
    ProvenanceSession session(options);
    ASSERT_TRUE(ReplayTrace(trace, session).ok());
    const auto stats = session.stats();
    auto result = session.Finish();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(FingerprintGraphlets(result->graphlets),
              FingerprintGraphlets(core::SegmentTrace(trace.store)));
    // Most cells seal before Finish under a tight grace.
    if (result->graphlets.size() > 4) {
      EXPECT_GT(stats.segmenter.sealed, 0u);
    }
  }
}

TEST(StreamEquivalenceTest, StreamingIsIdenticalAcrossThreadCounts) {
  // Sessions are per-pipeline and single-threaded; replaying the same
  // corpus under different ParallelFor thread counts must produce
  // byte-identical fingerprints in pipeline order.
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  auto fingerprints = [&](int threads) {
    common::SetGlobalThreads(threads);
    std::vector<uint64_t> out(corpus.pipelines.size());
    common::ParallelFor(corpus.pipelines.size(), [&](size_t i) {
      ProvenanceSession session;
      (void)ReplayTrace(corpus.pipelines[i], session);
      auto result = session.Finish();
      out[i] = result.ok() ? FingerprintGraphlets(result->graphlets) : 0;
    });
    return out;
  };
  const std::vector<uint64_t> t1 = fingerprints(1);
  EXPECT_EQ(t1, fingerprints(4));
  EXPECT_EQ(t1, fingerprints(8));
  common::SetGlobalThreads(1);
}

}  // namespace
}  // namespace mlprov::stream
