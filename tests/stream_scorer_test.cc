#include <cmath>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "core/waste_mitigation.h"
#include "ml/dataset.h"
#include "simulator/corpus_generator.h"
#include "stream/online_scorer.h"
#include "stream/replay.h"
#include "stream/session.h"

namespace mlprov::stream {
namespace {

/// The warm-up corpus the scorer trains on and the (different-seed)
/// corpus the streaming sessions score.
sim::CorpusConfig TrainConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 16;
  config.seed = 900;
  config.horizon_days = 45.0;
  return config;
}

sim::CorpusConfig EvalConfig() {
  sim::CorpusConfig config = TrainConfig();
  config.num_pipelines = 6;
  config.seed = 901;
  return config;
}

class StreamScorerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    train_corpus_ = new sim::Corpus(sim::GenerateCorpus(TrainConfig()));
    auto segmented = core::SegmentCorpus(*train_corpus_);
    auto dataset = core::BuildWasteDataset(*train_corpus_, segmented);
    ASSERT_TRUE(dataset.ok()) << dataset.status();
    dataset_ = new core::WasteDataset(std::move(dataset).value());
    eval_corpus_ = new sim::Corpus(sim::GenerateCorpus(EvalConfig()));
  }
  static void TearDownTestSuite() {
    delete train_corpus_;
    delete dataset_;
    delete eval_corpus_;
    train_corpus_ = nullptr;
    dataset_ = nullptr;
    eval_corpus_ = nullptr;
  }

  static sim::Corpus* train_corpus_;
  static core::WasteDataset* dataset_;
  static sim::Corpus* eval_corpus_;
};

sim::Corpus* StreamScorerTest::train_corpus_ = nullptr;
core::WasteDataset* StreamScorerTest::dataset_ = nullptr;
sim::Corpus* StreamScorerTest::eval_corpus_ = nullptr;

/// Replays the eval corpus through scoring sessions and returns the
/// per-pipeline results.
std::vector<SessionResult> ScoreCorpus(const sim::Corpus& corpus,
                                       const OnlineScorer& scorer,
                                       double seal_grace_hours = 24.0) {
  std::vector<SessionResult> results;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    SessionOptions options;
    options.scorer = &scorer;
    options.segmenter.seal_grace_hours = seal_grace_hours;
    ProvenanceSession session(options);
    EXPECT_TRUE(ReplayTrace(trace, session).ok());
    auto result = session.Finish();
    EXPECT_TRUE(result.ok()) << result.status();
    results.push_back(std::move(result).value());
  }
  return results;
}

TEST_F(StreamScorerTest, TrainRejectsBadInputs) {
  core::WasteDataset empty;
  EXPECT_EQ(OnlineScorer::Train(empty).status().code(),
            common::StatusCode::kInvalidArgument);

  OnlineScorerOptions options;
  options.policy_variant = core::Variant::kValidation;
  EXPECT_EQ(OnlineScorer::Train(*dataset_, options).status().code(),
            common::StatusCode::kInvalidArgument);

  // Feature options that disagree with the dataset's schema are refused
  // (the row layout would silently misalign).
  OnlineScorerOptions mismatched;
  mismatched.features.history_window = 7;
  EXPECT_EQ(OnlineScorer::Train(*dataset_, mismatched).status().code(),
            common::StatusCode::kInvalidArgument);

  // One row: the grouped split puts its only pipeline on the test side,
  // so no forest could be fitted and every score would be meaningless.
  core::WasteDataset one_row = *dataset_;
  one_row.data = dataset_->data.Subset({0});
  one_row.total_cost.resize(1);
  for (std::vector<double>& cost : one_row.stage_cost) cost.resize(1);
  one_row.num_pipelines = 1;
  EXPECT_EQ(OnlineScorer::Train(one_row).status().code(),
            common::StatusCode::kInvalidArgument);
}

TEST_F(StreamScorerTest, ScoreEqualsProjectedBatchPath) {
  const OnlineScorerOptions options;
  auto scorer = OnlineScorer::Train(*dataset_, options);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  const core::WasteMitigation mitigation(dataset_, options.mitigation);
  const ml::Dataset& data = dataset_->data;
  for (const core::Variant variant : kStreamingVariants) {
    const core::TrainedVariant batch = mitigation.Train(variant);
    const ml::Dataset projected = data.SelectFeatures(batch.columns);
    EXPECT_EQ(scorer->Threshold(variant), batch.threshold);
    for (size_t r = 0; r < data.NumRows(); ++r) {
      const std::vector<double> row(data.Row(r),
                                    data.Row(r) + data.NumFeatures());
      EXPECT_EQ(scorer->Score(variant, row),
                batch.forest.PredictProba(projected, r))
          << core::ToString(variant) << " row " << r;
    }
  }
}

TEST_F(StreamScorerTest, EveryGraphletGetsOneSettledDecision) {
  auto scorer = OnlineScorer::Train(*dataset_);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  const auto results = ScoreCorpus(*eval_corpus_, *scorer);

  size_t total_decisions = 0;
  for (const SessionResult& result : results) {
    ASSERT_EQ(result.decisions.size(), result.graphlets.size());
    total_decisions += result.decisions.size();

    // Decisions come in cell (trainer-arrival) order; match them to
    // graphlets by trainer id for the ground-truth checks.
    std::unordered_map<metadata::ExecutionId, const core::Graphlet*>
        by_trainer;
    for (const core::Graphlet& g : result.graphlets) {
      by_trainer[g.trainer] = &g;
    }

    size_t aborts = 0, lost = 0;
    double avoided = 0.0;
    for (const ScoreDecision& d : result.decisions) {
      EXPECT_TRUE(d.settled);
      ASSERT_TRUE(by_trainer.count(d.trainer));
      const core::Graphlet& g = *by_trainer[d.trainer];
      EXPECT_EQ(d.pushed, g.pushed);
      EXPECT_EQ(d.variant, core::Variant::kInput);  // default policy
      EXPECT_GE(d.score, 0.0);
      EXPECT_LE(d.score, 1.0);
      EXPECT_DOUBLE_EQ(d.threshold,
                       scorer->Threshold(core::Variant::kInput));
      EXPECT_EQ(d.abort, d.score < d.threshold);
      if (d.abort) {
        // Aborting before the trainer always saves its (positive) cost.
        EXPECT_GT(d.avoided_hours, 0.0);
        EXPECT_EQ(d.lost_push, d.pushed);
        ++aborts;
        lost += d.lost_push ? 1 : 0;
        avoided += d.avoided_hours;
      } else {
        EXPECT_EQ(d.avoided_hours, 0.0);
        EXPECT_FALSE(d.lost_push);
      }
    }
    EXPECT_EQ(result.waste.decisions, result.decisions.size());
    EXPECT_EQ(result.waste.aborts, aborts);
    EXPECT_EQ(result.waste.lost_pushes, lost);
    EXPECT_DOUBLE_EQ(result.waste.avoided_hours, avoided);
  }
  EXPECT_GT(total_decisions, 0u);
}

TEST_F(StreamScorerTest, InterventionPointsAreObservedInFeedOrder) {
  auto scorer = OnlineScorer::Train(*dataset_);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  const auto results = ScoreCorpus(*eval_corpus_, *scorer);

  size_t early = 0, trainer_stage = 0;
  for (const SessionResult& result : results) {
    std::unordered_map<metadata::ExecutionId, const core::Graphlet*>
        by_trainer;
    for (const core::Graphlet& g : result.graphlets) {
      by_trainer[g.trainer] = &g;
    }
    for (const ScoreDecision& d : result.decisions) {
      const core::Graphlet& g = *by_trainer[d.trainer];
      // A pushed graphlet had a live trainer with outputs and
      // downstream consumers: every streaming variant was scored at its
      // intervention point, not late at seal time.
      if (g.pushed) {
        EXPECT_TRUE(d.variant_scored[0]);
        EXPECT_TRUE(d.variant_scored[1]);
        EXPECT_TRUE(d.variant_scored[2]);
      }
      early += d.variant_scored[0] ? 1 : 0;
      trainer_stage += d.variant_scored[2] ? 1 : 0;
      // Scores exist for all three variants either way.
      for (int v = 0; v < 3; ++v) {
        EXPECT_TRUE(std::isfinite(d.variant_scores[v]));
      }
    }
  }
  EXPECT_GT(early, 0u);
  EXPECT_GT(trainer_stage, 0u);
}

TEST_F(StreamScorerTest, DecisionsAreDeterministicAcrossReplays) {
  auto scorer = OnlineScorer::Train(*dataset_);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  const auto a = ScoreCorpus(*eval_corpus_, *scorer);
  const auto b = ScoreCorpus(*eval_corpus_, *scorer);
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].decisions.size(), b[p].decisions.size());
    for (size_t i = 0; i < a[p].decisions.size(); ++i) {
      EXPECT_EQ(a[p].decisions[i].trainer, b[p].decisions[i].trainer);
      EXPECT_EQ(a[p].decisions[i].score, b[p].decisions[i].score);
      EXPECT_EQ(a[p].decisions[i].abort, b[p].decisions[i].abort);
      EXPECT_EQ(a[p].decisions[i].avoided_hours,
                b[p].decisions[i].avoided_hours);
      for (int v = 0; v < 3; ++v) {
        EXPECT_EQ(a[p].decisions[i].variant_scores[v],
                  b[p].decisions[i].variant_scores[v]);
      }
    }
    EXPECT_EQ(a[p].waste.aborts, b[p].waste.aborts);
    EXPECT_EQ(a[p].waste.avoided_hours, b[p].waste.avoided_hours);
  }
}

TEST_F(StreamScorerTest, LaterPolicyVariantAvoidsFewerHoursPerAbort) {
  // Acting at Input+Pre+Trainer leaves only the validation stage to
  // skip, so each abort avoids strictly less than an Input-stage abort
  // would on the same graphlet (stage costs are cumulative).
  OnlineScorerOptions late;
  late.policy_variant = core::Variant::kInputPreTrainer;
  auto scorer = OnlineScorer::Train(*dataset_, late);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  const auto results = ScoreCorpus(*eval_corpus_, *scorer);
  for (const SessionResult& result : results) {
    std::unordered_map<metadata::ExecutionId, const core::Graphlet*>
        by_trainer;
    for (const core::Graphlet& g : result.graphlets) {
      by_trainer[g.trainer] = &g;
    }
    for (const ScoreDecision& d : result.decisions) {
      EXPECT_EQ(d.variant, core::Variant::kInputPreTrainer);
      if (!d.abort) continue;
      const core::Graphlet& g = *by_trainer[d.trainer];
      // Avoided hours exclude everything up to and including the
      // trainer: they must be at most the post-trainer cost.
      EXPECT_LE(d.avoided_hours, g.post_trainer_cost + 1e-9);
    }
  }
}

TEST_F(StreamScorerTest, ScoringDoesNotPerturbSegmentation) {
  auto scorer = OnlineScorer::Train(*dataset_);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  for (const sim::PipelineTrace& trace : eval_corpus_->pipelines) {
    SessionOptions scored;
    scored.scorer = &*scorer;
    scored.segmenter.seal_grace_hours = 24.0;
    ProvenanceSession with_scorer(scored);
    ASSERT_TRUE(ReplayTrace(trace, with_scorer).ok());

    ProvenanceSession plain;
    ASSERT_TRUE(ReplayTrace(trace, plain).ok());

    auto a = with_scorer.Finish();
    auto b = plain.Finish();
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->graphlets.size(), b->graphlets.size());
    for (size_t i = 0; i < a->graphlets.size(); ++i) {
      EXPECT_EQ(a->graphlets[i].trainer, b->graphlets[i].trainer);
      EXPECT_EQ(a->graphlets[i].executions, b->graphlets[i].executions);
      EXPECT_EQ(a->graphlets[i].artifacts, b->graphlets[i].artifacts);
    }
  }
}

}  // namespace
}  // namespace mlprov::stream
