#include "simulator/pipeline_simulator.h"

#include <cmath>

#include <gtest/gtest.h>

#include "metadata/serialization.h"
#include "metadata/trace.h"
#include "simulator/corpus_generator.h"

namespace mlprov::sim {
namespace {

using metadata::ArtifactType;
using metadata::ExecutionType;
using metadata::ModelType;

CorpusConfig SmallCorpusConfig() {
  CorpusConfig config;
  config.num_pipelines = 40;
  config.seed = 1234;
  return config;
}

PipelineConfig BasicPipeline(uint64_t seed = 7) {
  PipelineConfig config;
  config.pipeline_id = 1;
  config.seed = seed;
  config.lifespan_days = 20;
  config.triggers_per_day = 2.0;
  config.window_spans = 2;
  config.num_features = 10;
  return config;
}

TEST(PipelineSimulatorTest, ProducesTrainersAndModels) {
  CorpusConfig corpus = SmallCorpusConfig();
  PipelineConfig config = BasicPipeline();
  const PipelineTrace trace = SimulatePipeline(corpus, config, CostModel());
  const auto trainers =
      trace.store.ExecutionsOfType(ExecutionType::kTrainer);
  // ~40 triggers at 2/day over 20 days.
  EXPECT_GT(trainers.size(), 15u);
  EXPECT_LT(trainers.size(), 90u);
  const auto models = trace.store.ArtifactsOfType(ArtifactType::kModel);
  EXPECT_GT(models.size(), 10u);
  EXPECT_LE(models.size(), trainers.size());
}

TEST(PipelineSimulatorTest, DeterministicForSeed) {
  CorpusConfig corpus = SmallCorpusConfig();
  const PipelineTrace a =
      SimulatePipeline(corpus, BasicPipeline(42), CostModel());
  const PipelineTrace b =
      SimulatePipeline(corpus, BasicPipeline(42), CostModel());
  EXPECT_EQ(a.store.num_executions(), b.store.num_executions());
  EXPECT_EQ(a.store.num_artifacts(), b.store.num_artifacts());
  EXPECT_EQ(a.store.num_events(), b.store.num_events());
}

TEST(PipelineSimulatorTest, TraceIsAcyclicAndConnectedish) {
  CorpusConfig corpus = SmallCorpusConfig();
  const PipelineTrace trace =
      SimulatePipeline(corpus, BasicPipeline(3), CostModel());
  metadata::TraceView view(&trace.store);
  // Topological order covers all executions => DAG.
  EXPECT_EQ(view.TopologicalOrder().size(), trace.store.num_executions());
  // Rolling windows tie triggers together: few components relative to
  // the number of executions.
  EXPECT_LT(view.NumConnectedComponents(),
            trace.store.num_executions() / 4 + 2);
}

TEST(PipelineSimulatorTest, RollingWindowShared) {
  CorpusConfig corpus = SmallCorpusConfig();
  PipelineConfig config = BasicPipeline(11);
  config.window_spans = 3;
  config.has_transform = false;  // trainers read spans directly
  const PipelineTrace trace = SimulatePipeline(corpus, config, CostModel());
  const auto trainers =
      trace.store.ExecutionsOfType(ExecutionType::kTrainer);
  ASSERT_GT(trainers.size(), 4u);
  // Most trainers read 3 spans (the first may read fewer fill-in spans).
  size_t full_window = 0;
  for (auto t : trainers) {
    size_t span_inputs = 0;
    for (auto a : trace.store.InputsOf(t)) {
      if (trace.store.GetArtifact(a)->type == ArtifactType::kExamples) {
        ++span_inputs;
      }
    }
    if (span_inputs == 3) ++full_window;
  }
  EXPECT_GT(full_window, trainers.size() / 2);
}

TEST(PipelineSimulatorTest, SpanStatsRecordedForEverySpan) {
  CorpusConfig corpus = SmallCorpusConfig();
  const PipelineTrace trace =
      SimulatePipeline(corpus, BasicPipeline(13), CostModel());
  for (auto span : trace.store.ArtifactsOfType(ArtifactType::kExamples)) {
    ASSERT_TRUE(trace.span_stats.count(span));
    EXPECT_GT(trace.span_stats.at(span).NumFeatures(), 0u);
  }
}

TEST(PipelineSimulatorTest, WarmStartAddsModelInputEdge) {
  CorpusConfig corpus = SmallCorpusConfig();
  PipelineConfig config = BasicPipeline(17);
  config.warm_start = true;
  const PipelineTrace trace = SimulatePipeline(corpus, config, CostModel());
  size_t warm_edges = 0;
  for (auto t : trace.store.ExecutionsOfType(ExecutionType::kTrainer)) {
    for (auto a : trace.store.InputsOf(t)) {
      if (trace.store.GetArtifact(a)->type == ArtifactType::kModel) {
        ++warm_edges;
      }
    }
  }
  EXPECT_GT(warm_edges, 0u);
}

TEST(PipelineSimulatorTest, ParallelTrainersShareInputs) {
  CorpusConfig corpus = SmallCorpusConfig();
  PipelineConfig config = BasicPipeline(19);
  config.parallel_trainers = 3;
  config.has_transform = false;
  const PipelineTrace trace = SimulatePipeline(corpus, config, CostModel());
  const auto trainers =
      trace.store.ExecutionsOfType(ExecutionType::kTrainer);
  EXPECT_GT(trainers.size(), 20u);
  // Consecutive trainer triples share identical span inputs.
  bool found_shared = false;
  for (size_t i = 0; i + 1 < trainers.size() && !found_shared; ++i) {
    found_shared = trace.store.InputsOf(trainers[i]) ==
                   trace.store.InputsOf(trainers[i + 1]);
  }
  EXPECT_TRUE(found_shared);
}

TEST(PipelineSimulatorTest, BlessingOnlyWhenModelValidatorPasses) {
  CorpusConfig corpus = SmallCorpusConfig();
  PipelineConfig config = BasicPipeline(23);
  config.has_evaluator = true;
  config.has_model_validator = true;
  config.lifespan_days = 60;
  const PipelineTrace trace = SimulatePipeline(corpus, config, CostModel());
  const auto blessings =
      trace.store.ArtifactsOfType(ArtifactType::kModelBlessing).size();
  const auto validators =
      trace.store.ExecutionsOfType(ExecutionType::kModelValidator).size();
  EXPECT_GT(validators, 0u);
  EXPECT_LT(blessings, validators);  // some models fail validation
  // Every push follows a blessing.
  const auto pushes =
      trace.store.ArtifactsOfType(ArtifactType::kPushedModel).size();
  EXPECT_LE(pushes, blessings);
}

TEST(PipelineSimulatorTest, PushesAreMinority) {
  CorpusConfig corpus = SmallCorpusConfig();
  PipelineConfig config = BasicPipeline(29);
  config.lifespan_days = 80;
  config.triggers_per_day = 3;
  const PipelineTrace trace = SimulatePipeline(corpus, config, CostModel());
  const double models = static_cast<double>(
      trace.store.ArtifactsOfType(ArtifactType::kModel).size());
  const double pushes = static_cast<double>(
      trace.store.ArtifactsOfType(ArtifactType::kPushedModel).size());
  ASSERT_GT(models, 0);
  EXPECT_LT(pushes / models, 0.7);
}

TEST(PipelineSimulatorTest, ExecutionTimesAreOrdered) {
  CorpusConfig corpus = SmallCorpusConfig();
  const PipelineTrace trace =
      SimulatePipeline(corpus, BasicPipeline(31), CostModel());
  for (const auto& e : trace.store.executions()) {
    EXPECT_LE(e.start_time, e.end_time);
  }
  // Artifacts are created no earlier than their producer starts.
  for (const auto& ev : trace.store.events()) {
    if (ev.kind != metadata::EventKind::kOutput) continue;
    const auto exec = trace.store.GetExecution(ev.execution);
    const auto artifact = trace.store.GetArtifact(ev.artifact);
    EXPECT_GE(artifact->create_time, exec->start_time);
  }
}

TEST(PipelineSimulatorTest, TrainerFailuresLeaveNoModel) {
  CorpusConfig corpus = SmallCorpusConfig();
  corpus.trainer_failure_prob = 0.5;  // force frequent failures
  PipelineConfig config = BasicPipeline(37);
  config.lifespan_days = 40;
  const PipelineTrace trace = SimulatePipeline(corpus, config, CostModel());
  size_t failed = 0;
  for (auto t : trace.store.ExecutionsOfType(ExecutionType::kTrainer)) {
    const auto exec = trace.store.GetExecution(t);
    if (!exec->succeeded) {
      ++failed;
      EXPECT_TRUE(trace.store.OutputsOf(t).empty());
    }
  }
  EXPECT_GT(failed, 0u);
}

TEST(CorpusGeneratorTest, EveryPipelineQualifiesMostly) {
  Corpus corpus = GenerateCorpus(SmallCorpusConfig());
  EXPECT_EQ(corpus.pipelines.size(), 40u);
  size_t with_push = 0;
  for (const auto& p : corpus.pipelines) {
    if (!p.store.ArtifactsOfType(ArtifactType::kPushedModel).empty()) {
      ++with_push;
    }
  }
  // Section 2.2 filter: nearly all pipelines deployed at least one model.
  EXPECT_GE(with_push, 36u);
  EXPECT_GT(corpus.TotalTrainerRuns(), 100u);
  EXPECT_GT(corpus.TotalExecutions(), corpus.TotalTrainerRuns());
  EXPECT_GT(corpus.TotalArtifacts(), 0u);
}

TEST(CorpusGeneratorTest, DeterministicForSeed) {
  const Corpus a = GenerateCorpus(SmallCorpusConfig());
  const Corpus b = GenerateCorpus(SmallCorpusConfig());
  ASSERT_EQ(a.pipelines.size(), b.pipelines.size());
  EXPECT_EQ(a.TotalExecutions(), b.TotalExecutions());
  EXPECT_EQ(a.TotalArtifacts(), b.TotalArtifacts());
}

TEST(CorpusGeneratorTest, SmallerCorpusIsStrictPrefixOfLarger) {
  // Per-pipeline derived RNG streams decouple pipelines from each other:
  // pipeline i's trace depends only on (seed, i), so growing the corpus
  // must not reshuffle the pipelines that were already there.
  CorpusConfig small = SmallCorpusConfig();
  small.num_pipelines = 10;
  CorpusConfig large = SmallCorpusConfig();
  large.num_pipelines = 16;
  const Corpus a = GenerateCorpus(small);
  const Corpus b = GenerateCorpus(large);
  ASSERT_EQ(a.pipelines.size(), 10u);
  ASSERT_EQ(b.pipelines.size(), 16u);
  for (size_t i = 0; i < a.pipelines.size(); ++i) {
    EXPECT_EQ(metadata::SerializeStore(a.pipelines[i].store),
              metadata::SerializeStore(b.pipelines[i].store))
        << "pipeline " << i << " changed when the corpus grew";
  }
}

TEST(CorpusGeneratorTest, PipelineConfigMatchesDerivedStream) {
  // The corpus generator samples pipeline i's config from
  // Rng::Derive(seed, i, attempt). Re-deriving the stream by hand must
  // reproduce the stored config; if the generator ever goes back to one
  // shared stream (the pre-fix coupling bug), no attempt will match.
  const CorpusConfig config = SmallCorpusConfig();
  const Corpus corpus = GenerateCorpus(config);
  for (const size_t pipeline : {size_t{0}, size_t{7}, size_t{39}}) {
    bool matched = false;
    for (int attempt = 0; attempt < 8 && !matched; ++attempt) {
      common::Rng rng = common::Rng::Derive(config.seed, pipeline,
                                            static_cast<uint64_t>(attempt));
      const PipelineConfig pc = SamplePipelineConfig(
          config, static_cast<int64_t>(pipeline), rng);
      matched = pc.seed == corpus.pipelines[pipeline].config.seed &&
                pc.model_type == corpus.pipelines[pipeline].config.model_type;
    }
    EXPECT_TRUE(matched) << "pipeline " << pipeline
                         << " config not reproducible from derived stream";
  }
}

TEST(CorpusGeneratorTest, ModelMixRoughlyMatchesConfig) {
  CorpusConfig config = SmallCorpusConfig();
  config.num_pipelines = 150;
  const Corpus corpus = GenerateCorpus(config);
  size_t dnn = 0;
  for (const auto& p : corpus.pipelines) {
    if (p.config.model_type == ModelType::kDnn) ++dnn;
  }
  const double frac = static_cast<double>(dnn) /
                      static_cast<double>(corpus.pipelines.size());
  EXPECT_NEAR(frac, 0.64, 0.12);
}

TEST(SamplePipelineConfigTest, FieldsWithinBounds) {
  CorpusConfig corpus;
  common::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const PipelineConfig c = SamplePipelineConfig(corpus, i, rng);
    EXPECT_GE(c.lifespan_days, 1.0);
    EXPECT_LE(c.lifespan_days, corpus.horizon_days);
    EXPECT_GT(c.triggers_per_day, 0.0);
    EXPECT_LE(c.triggers_per_day, corpus.max_triggers_per_day);
    EXPECT_GE(c.num_features, 3);
    EXPECT_LE(c.num_features, corpus.max_features);
    EXPECT_GE(c.categorical_fraction, 0.05);
    EXPECT_LE(c.categorical_fraction, 0.95);
    EXPECT_GE(c.window_spans, 1);
    EXPECT_GE(c.parallel_trainers, 1);
    EXPECT_LE(c.parallel_trainers, 4);
    // Structural implications.
    if (c.has_schema_gen) {
      EXPECT_TRUE(c.has_statistics_gen);
    }
    if (c.has_model_validator) {
      EXPECT_TRUE(c.has_evaluator);
    }
    if (c.has_infra_validator) {
      EXPECT_TRUE(c.has_model_validator);
    }
    if (!c.has_transform) {
      EXPECT_TRUE(c.analyzers.empty());
    }
  }
}

TEST(CostModelTest, TrainerCostVariesByModelTypeAndHealth) {
  CostModel cost_model;
  PipelineConfig dnn = BasicPipeline();
  dnn.model_type = ModelType::kDnn;
  PipelineConfig linear = BasicPipeline();
  linear.model_type = ModelType::kLinear;
  common::Rng rng(3);
  double dnn_sum = 0, linear_sum = 0, unhealthy_sum = 0;
  for (int i = 0; i < 300; ++i) {
    dnn_sum += cost_model.Cost(ExecutionType::kTrainer, dnn, false, rng);
    linear_sum +=
        cost_model.Cost(ExecutionType::kTrainer, linear, false, rng);
    unhealthy_sum +=
        cost_model.Cost(ExecutionType::kTrainer, dnn, true, rng);
  }
  EXPECT_GT(dnn_sum, linear_sum * 1.5);
  EXPECT_GT(unhealthy_sum, dnn_sum * 1.2);
}

TEST(CostModelTest, AllOperatorsHavePositiveCost) {
  CostModel cost_model;
  PipelineConfig config = BasicPipeline();
  common::Rng rng(9);
  for (int t = 0; t < metadata::kNumExecutionTypes; ++t) {
    EXPECT_GT(cost_model.Cost(static_cast<ExecutionType>(t), config, false,
                              rng),
              0.0);
  }
}

}  // namespace
}  // namespace mlprov::sim
