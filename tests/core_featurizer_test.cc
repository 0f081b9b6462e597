// End-to-end pins of the graphlet featurizer: the waste dataset built on a
// fixed calibrated corpus and the decisions a scored session takes on
// another must keep the exact bit patterns recorded before the featurizer
// was restructured (span sketches, history entries, the Row -> Advance
// handoff). A change that moves any feature value, stage cost or decision
// by one ulp fails here. The fingerprints were taken on x86-64 with
// GCC 12 and glibc 2.36; the corpus generator's libm calls tie them to
// that platform.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "simulator/corpus_generator.h"
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/replay.h"
#include "stream/session.h"

namespace mlprov::core {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void MixDouble(uint64_t& h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Mix(h, bits);
}

/// The corpus the dataset is built from and the scorer trained on.
sim::CorpusConfig TrainConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 16;
  config.seed = 900;
  config.horizon_days = 45.0;
  return config;
}

struct Fixture {
  sim::Corpus train;
  SegmentedCorpus segmented;
  WasteDataset dataset;
  sim::Corpus eval;
};

const Fixture& TestFixture() {
  static const Fixture* fixture = [] {
    auto* f = new Fixture();
    f->train = sim::GenerateCorpus(TrainConfig());
    f->segmented = SegmentCorpus(f->train);
    f->dataset = *BuildWasteDataset(f->train, f->segmented);
    sim::CorpusConfig eval = TrainConfig();
    eval.num_pipelines = 8;
    eval.seed = 901;
    f->eval = sim::GenerateCorpus(eval);
    return f;
  }();
  return *fixture;
}

uint64_t FingerprintRows(const WasteDataset& dataset) {
  uint64_t h = kFnvOffset;
  const ml::Dataset& data = dataset.data;
  Mix(h, data.NumRows());
  Mix(h, data.NumFeatures());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    for (size_t c = 0; c < data.NumFeatures(); ++c) {
      MixDouble(h, data.Feature(r, c));
    }
    Mix(h, static_cast<uint64_t>(data.Label(r)));
    Mix(h, static_cast<uint64_t>(data.Group(r)));
    MixDouble(h, dataset.total_cost[r]);
  }
  return h;
}

uint64_t FingerprintStageCosts(const WasteDataset& dataset) {
  uint64_t h = kFnvOffset;
  for (const std::vector<double>& stage : dataset.stage_cost) {
    Mix(h, stage.size());
    for (double cost : stage) MixDouble(h, cost);
  }
  return h;
}

TEST(WasteDatasetFingerprintTest, RowsAndStageCostsArePinned) {
  const Fixture& f = TestFixture();
  ASSERT_GT(f.dataset.data.NumRows(), 100u);
  EXPECT_EQ(FingerprintRows(f.dataset), 0x0dd30a53080d48f0ull);
  EXPECT_EQ(FingerprintStageCosts(f.dataset), 0x1168a012c5c727bfull);
}

TEST(WasteDatasetFingerprintTest, ScoredSessionDecisionsArePinned) {
  const Fixture& f = TestFixture();
  auto scorer = stream::OnlineScorer::Train(f.dataset);
  ASSERT_TRUE(scorer.ok()) << scorer.status();
  uint64_t h = kFnvOffset;
  size_t decisions = 0;
  for (const sim::PipelineTrace& trace : f.eval.pipelines) {
    stream::SessionOptions options;
    options.scorer = &*scorer;
    stream::ProvenanceSession session(options);
    ASSERT_TRUE(stream::ReplayTrace(trace, session).ok());
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    decisions += result->decisions.size();
    Mix(h, stream::FingerprintDecisions(result->decisions));
  }
  EXPECT_GT(decisions, 50u);
  EXPECT_EQ(h, 0x07cc0e790aa2d2acull);
}

/// The longest pipeline's graphlets, with its trace.
const SegmentedPipeline& LongestPipeline(const Fixture& f) {
  const SegmentedPipeline* best = &f.segmented.pipelines.front();
  for (const SegmentedPipeline& sp : f.segmented.pipelines) {
    if (sp.graphlets.size() > best->graphlets.size()) best = &sp;
  }
  return *best;
}

TEST(WasteDatasetFingerprintTest, RowOfAnotherGraphletBeforeAdvance) {
  // Row(a), Row(b), Advance(a): Advance must not take the lag-1 values Row
  // left behind for b. Every later row equals a fresh featurizer's.
  const Fixture& f = TestFixture();
  const SegmentedPipeline& sp = LongestPipeline(f);
  ASSERT_GE(sp.graphlets.size(), 6u);
  const sim::PipelineTrace& trace = f.train.pipelines[sp.pipeline_index];
  const std::vector<Graphlet>& g = sp.graphlets;

  GraphletFeaturizer reference(&trace.store, &trace.span_stats);
  std::vector<std::vector<double>> expected;
  for (const Graphlet& graphlet : g) {
    expected.push_back(reference.NextRow(graphlet));
  }

  for (size_t a = 0; a + 1 < g.size(); a += g.size() / 3) {
    GraphletFeaturizer featurizer(&trace.store, &trace.span_stats);
    for (size_t i = 0; i < a; ++i) featurizer.NextRow(g[i]);
    EXPECT_EQ(featurizer.Row(g[a]), expected[a]) << a;
    featurizer.Row(g[a + 1]);
    featurizer.Advance(g[a]);
    for (size_t i = a + 1; i < g.size(); ++i) {
      ASSERT_EQ(featurizer.NextRow(g[i]), expected[i]) << a << " " << i;
    }
  }
}

TEST(WasteDatasetFingerprintTest, AdvanceOfChangedGraphletRecomputes) {
  // Row(a) then Advance(a') where a' gained an input span: Advance must
  // compute a''s lag-1 values, as an Advance with no Row before it does.
  const Fixture& f = TestFixture();
  const SegmentedPipeline& sp = LongestPipeline(f);
  const sim::PipelineTrace& trace = f.train.pipelines[sp.pipeline_index];
  const std::vector<Graphlet>& g = sp.graphlets;
  ASSERT_GE(g.size(), 4u);
  Graphlet grown = g[2];
  grown.input_spans.insert(grown.input_spans.begin(),
                           g[0].input_spans.begin(), g[0].input_spans.end());

  GraphletFeaturizer reference(&trace.store, &trace.span_stats);
  GraphletFeaturizer featurizer(&trace.store, &trace.span_stats);
  for (size_t i = 0; i < 2; ++i) {
    reference.NextRow(g[i]);
    featurizer.NextRow(g[i]);
  }
  reference.Advance(grown);
  featurizer.Row(g[2]);
  featurizer.Advance(grown);
  for (size_t i = 3; i < g.size(); ++i) {
    ASSERT_EQ(featurizer.NextRow(g[i]), reference.NextRow(g[i])) << i;
  }
}

}  // namespace
}  // namespace mlprov::core
