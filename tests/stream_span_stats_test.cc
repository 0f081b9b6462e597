/// Span statistics are shared, immutable objects: a scored session keeps
/// the stats its feed delivered after their producer is gone — the
/// corpus, a live simulator's trace, or the WAL entries and checkpoint
/// payload recovery decoded them from — and still takes the decisions a
/// reference session takes.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "simulator/corpus_generator.h"
#include "simulator/pipeline_simulator.h"
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/supervisor.h"

namespace mlprov::stream {
namespace {

namespace fs = std::filesystem;

sim::CorpusConfig TrainConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 8;
  config.seed = 900;
  config.horizon_days = 45.0;
  return config;
}

sim::CorpusConfig EvalConfig() {
  sim::CorpusConfig config = TrainConfig();
  config.num_pipelines = 4;
  config.seed = 901;
  return config;
}

class SpanStatsLifetimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sim::Corpus train = sim::GenerateCorpus(TrainConfig());
    auto dataset =
        core::BuildWasteDataset(train, core::SegmentCorpus(train));
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    auto scorer = OnlineScorer::Train(*dataset);
    ASSERT_TRUE(scorer.ok()) << scorer.status();
    scorer_ = new OnlineScorer(std::move(scorer).value());
  }
  static void TearDownTestSuite() {
    delete scorer_;
    scorer_ = nullptr;
  }

  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("mlprov_span_stats_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static SessionOptions Scored() {
    SessionOptions options;
    options.scorer = scorer_;
    return options;
  }

  static OnlineScorer* scorer_;
  std::string dir_;
};

OnlineScorer* SpanStatsLifetimeTest::scorer_ = nullptr;

/// Decisions of a scored session that replays `trace` uninterrupted.
uint64_t ReferenceDecisions(const sim::PipelineTrace& trace,
                            const SessionOptions& options) {
  ProvenanceSession session(options);
  EXPECT_TRUE(ReplayTrace(trace, session).ok());
  auto result = session.Finish();
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? FingerprintDecisions(result->decisions) : 0;
}

TEST_F(SpanStatsLifetimeTest, ScoredSessionOutlivesItsCorpus) {
  auto corpus = std::make_unique<sim::Corpus>(sim::GenerateCorpus(EvalConfig()));
  std::vector<std::unique_ptr<ProvenanceSession>> sessions;
  for (const sim::PipelineTrace& trace : corpus->pipelines) {
    sessions.push_back(std::make_unique<ProvenanceSession>(Scored()));
    ASSERT_TRUE(ReplayTrace(trace, *sessions.back()).ok());
  }
  corpus.reset();

  const sim::Corpus reference = sim::GenerateCorpus(EvalConfig());
  size_t decisions = 0;
  for (size_t p = 0; p < sessions.size(); ++p) {
    // The session is now the stats' only holder.
    for (const auto& [id, stats] : sessions[p]->span_stats()) {
      EXPECT_EQ(stats.use_count(), 1) << "pipeline " << p << " span " << id;
    }
    auto result = sessions[p]->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    decisions += result->decisions.size();
    EXPECT_EQ(FingerprintDecisions(result->decisions),
              ReferenceDecisions(reference.pipelines[p], Scored()))
        << "pipeline " << p;
  }
  EXPECT_GT(decisions, 0u);
}

TEST_F(SpanStatsLifetimeTest, LiveSessionOutlivesTheSimulatorsTrace) {
  const sim::Corpus corpus = sim::GenerateCorpus(EvalConfig());
  const sim::CostModel cost_model;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    ProvenanceSession live(Scored());
    // The trace the live simulator fed is discarded before Finish.
    (void)sim::SimulatePipeline(corpus.config, trace.config, cost_model,
                                &live);
    ASSERT_TRUE(live.status().ok()) << live.status();
    auto result = live.Finish();
    ASSERT_TRUE(result.ok()) << result.status();

    const sim::PipelineTrace relived =
        sim::SimulatePipeline(corpus.config, trace.config, cost_model);
    EXPECT_EQ(FingerprintDecisions(result->decisions),
              ReferenceDecisions(relived, Scored()))
        << "pipeline " << trace.config.pipeline_id;
  }
}

TEST_F(SpanStatsLifetimeTest, RecoveredSessionOutlivesItsWalEntries) {
  const sim::Corpus corpus = sim::GenerateCorpus(EvalConfig());
  const sim::PipelineTrace& trace = corpus.pipelines[0];
  const uint64_t expected = ReferenceDecisions(trace, Scored());
  TraceRecordSource source(trace);
  // WAL replay alone, then a checkpoint restore plus a WAL tail.
  for (const uint64_t checkpoint_interval : {uint64_t{0}, uint64_t{64}}) {
    fs::remove_all(dir_);
    DurableOptions options;
    options.wal.dir = dir_;
    options.wal.sync = WalSyncPolicy::kEvery;
    options.checkpoint_interval = checkpoint_interval;
    options.session = Scored();

    const uint64_t split = source.size() / 2;
    {
      auto first = DurableSession::Open(options);
      ASSERT_TRUE(first.ok()) << first.status();
      for (uint64_t i = 0; i < split; ++i) {
        ASSERT_TRUE(first->Ingest(*source.Get(i)).ok());
      }
      ASSERT_TRUE(first->SimulateCrash().ok());
    }

    // Open decodes the stats into the entries it replays, and the
    // entries are gone when it returns.
    auto second = DurableSession::Open(options);
    ASSERT_TRUE(second.ok()) << second.status();
    ASSERT_EQ(second->records(), split);
    EXPECT_EQ(second->recovery().used_checkpoint, checkpoint_interval != 0);
    ASSERT_FALSE(second->session().span_stats().empty());
    for (const auto& [id, stats] : second->session().span_stats()) {
      EXPECT_NE(stats.get(), trace.span_stats.at(id).get()) << "span " << id;
      EXPECT_EQ(stats.use_count(), 1) << "span " << id;
    }
    for (uint64_t i = split; i < source.size(); ++i) {
      ASSERT_TRUE(second->Ingest(*source.Get(i)).ok());
    }
    auto result = second->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(result->decisions.empty());
    EXPECT_EQ(FingerprintDecisions(result->decisions), expected)
        << "checkpoint interval " << checkpoint_interval;
  }
}

}  // namespace
}  // namespace mlprov::stream
