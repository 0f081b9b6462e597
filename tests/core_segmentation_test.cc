#include "core/segmentation.h"

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "metadata/metadata_store.h"
#include "simulator/corpus_generator.h"
#include "simulator/pipeline_simulator.h"

namespace mlprov::core {
namespace {

using metadata::ArtifactId;
using metadata::ArtifactType;
using metadata::EventKind;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::MetadataStore;

/// Builds the Figure 8-style trace:
///   gen1 -> s1, gen2 -> s2, gen3 -> s3
///   stats1 on s1, stats2 on s2, stats3 on s3 (data analysis, rule b)
///   trainer1 reads {s1, s2} -> m1; pusher1 pushes m1
///   trainer2 reads {s2, s3} and warm-starts from m1 -> m2 (not pushed)
struct Fig8Trace {
  MetadataStore store;
  ExecutionId gen[3], stats[3], trainer1, trainer2, pusher1;
  ArtifactId span[3], stat_art[3], m1, m2, pushed1;

  Fig8Trace() {
    auto exec = [&](ExecutionType t, metadata::Timestamp start,
                    double cost = 1.0) {
      metadata::Execution e;
      e.type = t;
      e.start_time = start;
      e.end_time = start + 5;
      e.compute_cost = cost;
      return store.PutExecution(e);
    };
    auto artifact = [&](ArtifactType t, metadata::Timestamp created,
                        int64_t span_number = -1) {
      metadata::Artifact a;
      a.type = t;
      a.create_time = created;
      if (span_number >= 0) a.properties["span"] = span_number;
      return store.PutArtifact(a);
    };
    auto link = [&](ExecutionId e, ArtifactId a, EventKind k) {
      ASSERT_TRUE(store.PutEvent({e, a, k, 0}).ok());
    };
    for (int i = 0; i < 3; ++i) {
      gen[i] = exec(ExecutionType::kExampleGen, i * 10);
      span[i] = artifact(ArtifactType::kExamples, i * 10 + 5, i);
      link(gen[i], span[i], EventKind::kOutput);
      stats[i] = exec(ExecutionType::kStatisticsGen, i * 10 + 6);
      link(stats[i], span[i], EventKind::kInput);
      stat_art[i] =
          artifact(ArtifactType::kExampleStatistics, i * 10 + 8);
      link(stats[i], stat_art[i], EventKind::kOutput);
    }
    trainer1 = exec(ExecutionType::kTrainer, 40, /*cost=*/10.0);
    link(trainer1, span[0], EventKind::kInput);
    link(trainer1, span[1], EventKind::kInput);
    m1 = artifact(ArtifactType::kModel, 45);
    link(trainer1, m1, EventKind::kOutput);
    pusher1 = exec(ExecutionType::kPusher, 50, /*cost=*/0.5);
    link(pusher1, m1, EventKind::kInput);
    pushed1 = artifact(ArtifactType::kPushedModel, 55);
    link(pusher1, pushed1, EventKind::kOutput);

    trainer2 = exec(ExecutionType::kTrainer, 60, /*cost=*/12.0);
    link(trainer2, span[1], EventKind::kInput);
    link(trainer2, span[2], EventKind::kInput);
    link(trainer2, m1, EventKind::kInput);  // warm start
    m2 = artifact(ArtifactType::kModel, 65);
    link(trainer2, m2, EventKind::kOutput);
  }
};

template <typename C, typename V>
bool Has(const C& container, V value) {
  return std::find(container.begin(), container.end(), value) !=
         container.end();
}

TEST(SegmentationTest, OneGraphletPerTrainerInChronologicalOrder) {
  Fig8Trace t;
  const auto graphlets = SegmentTrace(t.store);
  ASSERT_EQ(graphlets.size(), 2u);
  EXPECT_EQ(graphlets[0].trainer, t.trainer1);
  EXPECT_EQ(graphlets[1].trainer, t.trainer2);
}

TEST(SegmentationTest, RuleAIncludesAncestors) {
  Fig8Trace t;
  const auto g = SegmentTrace(t.store);
  EXPECT_TRUE(Has(g[0].executions, t.gen[0]));
  EXPECT_TRUE(Has(g[0].executions, t.gen[1]));
  EXPECT_FALSE(Has(g[0].executions, t.gen[2]));
  EXPECT_TRUE(Has(g[0].artifacts, t.span[0]));
  EXPECT_TRUE(Has(g[0].artifacts, t.span[1]));
}

TEST(SegmentationTest, RuleBIncludesDataAnalysisOnSpans) {
  Fig8Trace t;
  const auto g = SegmentTrace(t.store);
  EXPECT_TRUE(Has(g[0].executions, t.stats[0]));
  EXPECT_TRUE(Has(g[0].executions, t.stats[1]));
  EXPECT_FALSE(Has(g[0].executions, t.stats[2]));
  EXPECT_TRUE(Has(g[0].artifacts, t.stat_art[0]));
  EXPECT_TRUE(Has(g[1].executions, t.stats[1]));
  EXPECT_TRUE(Has(g[1].executions, t.stats[2]));
  EXPECT_FALSE(Has(g[1].executions, t.stats[0]));
}

TEST(SegmentationTest, RuleCIncludesDescendantsAndPushFlag) {
  Fig8Trace t;
  const auto g = SegmentTrace(t.store);
  EXPECT_TRUE(Has(g[0].executions, t.pusher1));
  EXPECT_TRUE(Has(g[0].artifacts, t.pushed1));
  EXPECT_TRUE(g[0].pushed);
  EXPECT_FALSE(g[1].pushed);
}

TEST(SegmentationTest, WarmStartEdgeIsACut) {
  Fig8Trace t;
  const auto g = SegmentTrace(t.store);
  // Graphlet 2 includes m1 as an input artifact, but not trainer1 or the
  // pusher downstream of m1 (Figure 8).
  EXPECT_TRUE(g[1].warm_start);
  EXPECT_TRUE(Has(g[1].artifacts, t.m1));
  EXPECT_FALSE(Has(g[1].executions, t.trainer1));
  EXPECT_FALSE(Has(g[1].executions, t.pusher1));
  // And graphlet 1 does not extend into trainer2.
  EXPECT_FALSE(Has(g[0].executions, t.trainer2));
  EXPECT_FALSE(Has(g[0].artifacts, t.m2));
}

TEST(SegmentationTest, InputSpansOrderedBySpanNumber) {
  Fig8Trace t;
  const auto g = SegmentTrace(t.store);
  EXPECT_EQ(g[0].input_spans,
            (std::vector<ArtifactId>{t.span[0], t.span[1]}));
  EXPECT_EQ(g[1].input_spans,
            (std::vector<ArtifactId>{t.span[1], t.span[2]}));

  // The key is the integer "span" property, else the creation time (a
  // missing or non-integer property); equal keys order by id.
  MetadataStore store;
  metadata::Execution gen;
  gen.type = ExecutionType::kExampleGen;
  const ExecutionId gen_id = store.PutExecution(gen);
  metadata::Execution trainer;
  trainer.type = ExecutionType::kTrainer;
  trainer.start_time = 200;
  trainer.end_time = 210;
  const ExecutionId trainer_id = store.PutExecution(trainer);
  auto span = [&](metadata::Timestamp created,
                  std::optional<metadata::PropertyValue> number) {
    metadata::Artifact a;
    a.type = ArtifactType::kExamples;
    a.create_time = created;
    if (number.has_value()) a.properties["span"] = *number;
    const ArtifactId id = store.PutArtifact(a);
    EXPECT_TRUE(store.PutEvent({gen_id, id, EventKind::kOutput, 0}).ok());
    EXPECT_TRUE(store.PutEvent({trainer_id, id, EventKind::kInput, 0}).ok());
    return id;
  };
  const ArtifactId five = span(100, int64_t{5});      // key 5
  const ArtifactId no_span = span(3, std::nullopt);   // key 3
  const ArtifactId text = span(9, std::string("2"));  // key 9
  const ArtifactId five_again = span(0, int64_t{5});  // key 5, later id
  const ArtifactId real = span(7, 1.0);               // key 7
  const auto mixed = SegmentTrace(store);
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed[0].input_spans,
            (std::vector<ArtifactId>{no_span, five, five_again, real, text}));
  const auto datalog = SegmentTraceDatalog(store);
  ASSERT_EQ(datalog.size(), 1u);
  EXPECT_EQ(datalog[0].input_spans, mixed[0].input_spans);
}

TEST(SegmentationTest, CostSplit) {
  Fig8Trace t;
  const auto g = SegmentTrace(t.store);
  EXPECT_DOUBLE_EQ(g[0].trainer_cost, 10.0);
  // pre = gen0 + gen1 + stats0 + stats1 = 4 executions of cost 1.
  EXPECT_DOUBLE_EQ(g[0].pre_trainer_cost, 4.0);
  EXPECT_DOUBLE_EQ(g[0].post_trainer_cost, 0.5);  // pusher
  EXPECT_DOUBLE_EQ(g[0].TotalCost(), 14.5);
  // Graphlet 2 has no post-trainer ops.
  EXPECT_DOUBLE_EQ(g[1].post_trainer_cost, 0.0);
}

TEST(SegmentationTest, ModelAndMetadataFields) {
  Fig8Trace t;
  const auto g = SegmentTrace(t.store);
  EXPECT_EQ(g[0].model, t.m1);
  EXPECT_EQ(g[1].model, t.m2);
  EXPECT_TRUE(g[0].trainer_succeeded);
  EXPECT_GT(g[0].DurationSeconds(), 0);
  EXPECT_GT(g[0].NumNodes(), 8u);
}

TEST(SegmentationTest, EmptyStoreYieldsNoGraphlets) {
  MetadataStore store;
  EXPECT_TRUE(SegmentTrace(store).empty());
}

TEST(SegmentationTest, DatalogMatchesFastPathOnFig8) {
  Fig8Trace t;
  const auto fast = SegmentTrace(t.store);
  const auto datalog = SegmentTraceDatalog(t.store);
  ASSERT_EQ(fast.size(), datalog.size());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].trainer, datalog[i].trainer);
    EXPECT_EQ(fast[i].executions, datalog[i].executions) << "graphlet " << i;
    EXPECT_EQ(fast[i].artifacts, datalog[i].artifacts) << "graphlet " << i;
    EXPECT_EQ(fast[i].input_spans, datalog[i].input_spans);
    EXPECT_EQ(fast[i].pushed, datalog[i].pushed);
    EXPECT_DOUBLE_EQ(fast[i].TotalCost(), datalog[i].TotalCost());
  }
}

TEST(SegmentationTest, DatalogMatchesFastPathOnSimulatedTrace) {
  sim::CorpusConfig corpus_config;
  corpus_config.num_pipelines = 1;
  common::Rng rng(99);
  sim::PipelineConfig config =
      sim::SamplePipelineConfig(corpus_config, 0, rng);
  config.lifespan_days = 4;
  config.triggers_per_day = 2;
  config.warm_start = true;  // exercise the ancestor cut
  const sim::PipelineTrace trace =
      sim::SimulatePipeline(corpus_config, config, sim::CostModel());
  const auto fast = SegmentTrace(trace.store);
  const auto datalog = SegmentTraceDatalog(trace.store);
  ASSERT_EQ(fast.size(), datalog.size());
  ASSERT_FALSE(fast.empty());
  for (size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].executions, datalog[i].executions) << "graphlet " << i;
    EXPECT_EQ(fast[i].artifacts, datalog[i].artifacts) << "graphlet " << i;
  }
}

TEST(SegmentationTest, SimulatedTraceGraphletsAreBounded) {
  sim::CorpusConfig corpus_config;
  common::Rng rng(7);
  sim::PipelineConfig config =
      sim::SamplePipelineConfig(corpus_config, 0, rng);
  config.lifespan_days = 30;
  config.triggers_per_day = 4;
  config.warm_start = false;
  const sim::PipelineTrace trace =
      sim::SimulatePipeline(corpus_config, config, sim::CostModel());
  const auto graphlets = SegmentTrace(trace.store);
  ASSERT_GT(graphlets.size(), 10u);
  for (const Graphlet& g : graphlets) {
    EXPECT_GT(g.NumNodes(), 2u);
    EXPECT_LT(g.NumNodes(), 400u);  // bounded complexity (Section 4.1)
    EXPECT_FALSE(g.input_spans.empty());
    EXPECT_GT(g.TotalCost(), 0.0);
  }
  // The trainer count matches the graphlet count.
  EXPECT_EQ(graphlets.size(),
            trace.store.ExecutionsOfType(ExecutionType::kTrainer).size());
}

}  // namespace
}  // namespace mlprov::core
