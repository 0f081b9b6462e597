// TraceValidator (ISSUE 3): every corruption kind in the taxonomy is
// detected, repair mode fixes exactly what is mechanically fixable, and
// clean simulator traces validate clean.
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "metadata/metadata_store.h"
#include "metadata/trace_validator.h"
#include "simulator/pipeline_simulator.h"

namespace mlprov::metadata {
namespace {

ArtifactId AddArtifact(MetadataStore& store,
                       ArtifactType type = ArtifactType::kExamples) {
  Artifact a;
  a.type = type;
  a.create_time = 100;
  return store.PutArtifact(a);
}

ExecutionId AddExecution(MetadataStore& store,
                         ExecutionType type = ExecutionType::kExampleGen,
                         Timestamp start = 100, Timestamp end = 200) {
  Execution e;
  e.type = type;
  e.start_time = start;
  e.end_time = end;
  return store.PutExecution(e);
}

void Link(MetadataStore& store, ExecutionId exec, ArtifactId artifact,
          EventKind kind, Timestamp time = 150) {
  ASSERT_TRUE(store.PutEvent({exec, artifact, kind, time}).ok());
}

// A minimal healthy store: one producer, one artifact, one consumer.
MetadataStore HealthyStore() {
  MetadataStore store;
  const ExecutionId gen = AddExecution(store);
  const ArtifactId span = AddArtifact(store);
  Link(store, gen, span, EventKind::kOutput);
  const ExecutionId trainer =
      AddExecution(store, ExecutionType::kTrainer, 300, 400);
  Link(store, trainer, span, EventKind::kInput, 300);
  return store;
}

TEST(TraceValidatorTest, HealthyStoreIsClean) {
  const MetadataStore store = HealthyStore();
  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_TRUE(report.clean()) << report.Summary();
  EXPECT_FALSE(report.NeedsQuarantine());
}

TEST(TraceValidatorTest, DetectsOrphanArtifact) {
  MetadataStore store = HealthyStore();
  AddArtifact(store);  // no producer, no consumer
  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_EQ(report.orphan_artifacts, 1u);
  EXPECT_FALSE(report.NeedsQuarantine());  // orphans are benign
}

TEST(TraceValidatorTest, DetectsDanglingEvent) {
  MetadataStore store = HealthyStore();
  store.PutEventUnchecked({/*execution=*/999, /*artifact=*/1,
                           EventKind::kInput, /*time=*/150});
  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_EQ(report.dangling_events, 1u);
  EXPECT_TRUE(report.NeedsQuarantine());
}

TEST(TraceValidatorTest, DetectsExecutionTimeInversion) {
  MetadataStore store = HealthyStore();
  AddExecution(store, ExecutionType::kStatisticsGen, /*start=*/500,
               /*end=*/400);
  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_EQ(report.time_inversions, 1u);
  EXPECT_TRUE(report.NeedsQuarantine());
}

TEST(TraceValidatorTest, DetectsOutputEventBeforeProducerStart) {
  MetadataStore store = HealthyStore();
  const ExecutionId late =
      AddExecution(store, ExecutionType::kStatisticsGen, 1000, 1100);
  const ArtifactId out = AddArtifact(store, ArtifactType::kExampleStatistics);
  Link(store, late, out, EventKind::kOutput, /*time=*/50);
  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_EQ(report.time_inversions, 1u);
}

TEST(TraceValidatorTest, DetectsTruncatedGraphlet) {
  MetadataStore store = HealthyStore();
  AddExecution(store, ExecutionType::kTrainer, 600, 700);  // no inputs
  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_EQ(report.truncated_graphlets, 1u);
  EXPECT_FALSE(report.NeedsQuarantine());  // handled by graphlet drop
}

TEST(TraceValidatorTest, DetectsInvalidTypeEnums) {
  MetadataStore store = HealthyStore();
  AddArtifact(store, static_cast<ArtifactType>(99));
  const ExecutionId bogus =
      AddExecution(store, static_cast<ExecutionType>(77));
  const ArtifactId orphan_fix = AddArtifact(store);
  Link(store, bogus, orphan_fix, EventKind::kOutput);
  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_EQ(report.invalid_types, 2u);
  EXPECT_TRUE(report.NeedsQuarantine());
}

TEST(TraceValidatorTest, CorruptStoreTalliesExactly) {
  // Every TraceIssueKind but orphans at once, including an event kind
  // outside the enum, which the store indexes as an output edge (so the
  // artifact is not an orphan) while the validator counts it dangling.
  MetadataStore store;
  AddExecution(store, ExecutionType::kTrainer, /*start=*/100,
               /*end=*/50);  // inverted, and no input events
  AddExecution(store, static_cast<ExecutionType>(250));
  AddArtifact(store, static_cast<ArtifactType>(199));
  store.PutEventUnchecked({7, 1, EventKind::kInput, 0});
  store.PutEventUnchecked({1, 9, EventKind::kOutput, 0});
  store.PutEventUnchecked({1, 1, static_cast<EventKind>(9), 0});
  store.PutEventUnchecked({1, 1, EventKind::kOutput, 5});  // before start

  const ValidationReport report = TraceValidator().Validate(store);
  EXPECT_EQ(report.orphan_artifacts, 0u);
  EXPECT_EQ(report.dangling_events, 3u);
  EXPECT_EQ(report.time_inversions, 2u);
  EXPECT_EQ(report.truncated_graphlets, 1u);
  EXPECT_EQ(report.invalid_types, 2u);
  EXPECT_TRUE(report.NeedsQuarantine());
  // Artifacts, then executions, then events (ids are event indexes).
  const std::vector<std::pair<TraceIssueKind, int64_t>> want = {
      {TraceIssueKind::kInvalidType, 1},
      {TraceIssueKind::kTimeInversion, 1},
      {TraceIssueKind::kTruncatedGraphlet, 1},
      {TraceIssueKind::kInvalidType, 2},
      {TraceIssueKind::kDanglingEvent, 0},
      {TraceIssueKind::kDanglingEvent, 1},
      {TraceIssueKind::kDanglingEvent, 2},
      {TraceIssueKind::kTimeInversion, 3}};
  ASSERT_EQ(report.issues.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.issues[i].kind, want[i].first) << "issue " << i;
    EXPECT_EQ(report.issues[i].id, want[i].second) << "issue " << i;
  }
  EXPECT_EQ(report.Summary(),
            "3 dangling event(s), 2 time inversion(s), "
            "1 truncated graphlet(s), 2 invalid type(s)");
}

TEST(TraceValidatorTest, RepairDropsDanglingEvents) {
  MetadataStore store = HealthyStore();
  const size_t healthy_events = store.num_events();
  store.PutEventUnchecked({999, 1, EventKind::kInput, 150});
  store.PutEventUnchecked({1, 888, EventKind::kOutput, 150});
  const TraceValidator repairer(TraceValidator::Mode::kRepair);
  const ValidationReport report = repairer.ValidateAndRepair(store);
  EXPECT_EQ(report.dangling_events, 2u);
  EXPECT_EQ(report.dropped_events, 2u);
  EXPECT_EQ(store.num_events(), healthy_events);
  EXPECT_TRUE(TraceValidator().Validate(store).clean());
}

TEST(TraceValidatorTest, RepairClampsTimeInversions) {
  MetadataStore store = HealthyStore();
  const ExecutionId inverted =
      AddExecution(store, ExecutionType::kStatisticsGen, 500, 400);
  const ArtifactId out = AddArtifact(store, ArtifactType::kExampleStatistics);
  Link(store, inverted, out, EventKind::kOutput, 500);
  const TraceValidator repairer(TraceValidator::Mode::kRepair);
  const ValidationReport report = repairer.ValidateAndRepair(store);
  EXPECT_GE(report.clamped_times, 1u);
  const auto exec = store.GetExecution(inverted);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->end_time, exec->start_time);
}

TEST(TraceValidatorTest, RepairResetsInvalidTypesToCustom) {
  MetadataStore store = HealthyStore();
  const ArtifactId bad_artifact =
      AddArtifact(store, static_cast<ArtifactType>(250));
  const ExecutionId bad_exec =
      AddExecution(store, static_cast<ExecutionType>(250));
  Link(store, bad_exec, bad_artifact, EventKind::kOutput);
  const TraceValidator repairer(TraceValidator::Mode::kRepair);
  const ValidationReport report = repairer.ValidateAndRepair(store);
  EXPECT_EQ(report.reset_types, 2u);
  EXPECT_EQ(store.GetArtifact(bad_artifact)->type, ArtifactType::kCustom);
  EXPECT_EQ(store.GetExecution(bad_exec)->type, ExecutionType::kCustom);
}

TEST(TraceValidatorTest, ReportModeNeverMutates) {
  MetadataStore store = HealthyStore();
  AddExecution(store, ExecutionType::kStatisticsGen, 500, 400);
  store.PutEventUnchecked({999, 1, EventKind::kInput, 150});
  const size_t events_before = store.num_events();
  const TraceValidator reporter(TraceValidator::Mode::kReport);
  (void)reporter.ValidateAndRepair(store);
  EXPECT_EQ(store.num_events(), events_before);
  const auto exec = store.GetExecution(3);
  ASSERT_TRUE(exec.ok());
  EXPECT_EQ(exec->end_time, 400);
  EXPECT_EQ(exec->start_time, 500);
}

TEST(TraceValidatorTest, SimulatedTraceValidatesClean) {
  sim::CorpusConfig corpus_config;
  corpus_config.seed = 11;
  common::Rng rng(corpus_config.seed);
  sim::PipelineConfig config =
      sim::SamplePipelineConfig(corpus_config, 0, rng);
  config.lifespan_days = 20.0;
  const sim::PipelineTrace trace =
      sim::SimulatePipeline(corpus_config, config, sim::CostModel());
  const ValidationReport report =
      TraceValidator().Validate(trace.store);
  EXPECT_FALSE(report.NeedsQuarantine()) << report.Summary();
  EXPECT_EQ(report.dangling_events, 0u);
  EXPECT_EQ(report.invalid_types, 0u);
  EXPECT_EQ(report.truncated_graphlets, 0u);
}

}  // namespace
}  // namespace mlprov::metadata
