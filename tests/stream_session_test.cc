#include "stream/session.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "metadata/binary_serialization.h"
#include "metadata/types.h"
#include "obs/json.h"
#include "simulator/provenance_sink.h"

namespace mlprov::stream {
namespace {

using common::StatusCode;
using metadata::ArtifactId;
using metadata::ArtifactType;
using metadata::EventKind;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::Timestamp;
using sim::ProvenanceRecord;

ProvenanceRecord ContextRecord(metadata::ContextId id,
                               const std::string& name) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kContext;
  record.context.id = id;
  record.context.name = name;
  return record;
}

ProvenanceRecord ExecRecord(ExecutionId id, ExecutionType type,
                            Timestamp start, Timestamp end,
                            double cost = 1.0, bool succeeded = true) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kExecution;
  record.execution.id = id;
  record.execution.type = type;
  record.execution.start_time = start;
  record.execution.end_time = end;
  record.execution.compute_cost = cost;
  record.execution.succeeded = succeeded;
  return record;
}

ProvenanceRecord ArtifactRecord(ArtifactId id, ArtifactType type,
                                Timestamp created) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kArtifact;
  record.artifact.id = id;
  record.artifact.type = type;
  record.artifact.create_time = created;
  return record;
}

ProvenanceRecord EventRecord(ExecutionId exec, ArtifactId artifact,
                             EventKind kind, Timestamp time) {
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kEvent;
  record.event = {exec, artifact, kind, time};
  return record;
}

constexpr Timestamp kHour = metadata::kSecondsPerHour;

/// Feeds a minimal two-graphlet pipeline: gen -> span -> trainer1 -> m1,
/// then a second trainer over the same span much later.
class SessionFeed : public ::testing::Test {
 protected:
  void FeedPrefix(ProvenanceSession& session) {
    ASSERT_TRUE(session.Ingest(ContextRecord(1, "pipeline_0")).ok());
    ASSERT_TRUE(session
                    .Ingest(ExecRecord(1, ExecutionType::kExampleGen, 0,
                                       1 * kHour))
                    .ok());
    ASSERT_TRUE(
        session
            .Ingest(ArtifactRecord(1, ArtifactType::kExamples, 1 * kHour))
            .ok());
    ASSERT_TRUE(
        session.Ingest(EventRecord(1, 1, EventKind::kOutput, 1 * kHour))
            .ok());
    ASSERT_TRUE(session
                    .Ingest(ExecRecord(2, ExecutionType::kTrainer, 2 * kHour,
                                       3 * kHour, 10.0))
                    .ok());
    ASSERT_TRUE(
        session.Ingest(EventRecord(2, 1, EventKind::kInput, 2 * kHour))
            .ok());
    ASSERT_TRUE(
        session
            .Ingest(ArtifactRecord(2, ArtifactType::kModel, 3 * kHour))
            .ok());
    ASSERT_TRUE(
        session.Ingest(EventRecord(2, 2, EventKind::kOutput, 3 * kHour))
            .ok());
  }
};

TEST_F(SessionFeed, SegmentsHandBuiltFeed) {
  ProvenanceSession session;
  FeedPrefix(session);
  auto result = session.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->graphlets.size(), 1u);
  const core::Graphlet& g = result->graphlets[0];
  EXPECT_EQ(g.trainer, 2);
  EXPECT_EQ(g.executions, (std::vector<ExecutionId>{1, 2}));
  EXPECT_EQ(g.artifacts, (std::vector<ArtifactId>{1, 2}));
  EXPECT_EQ(g.input_spans, (std::vector<ArtifactId>{1}));
  EXPECT_EQ(g.model, 2);
  EXPECT_TRUE(session.finished());

  const SessionStats stats = session.stats();
  EXPECT_EQ(stats.records, 8u);
  EXPECT_EQ(stats.contexts, 1u);
  EXPECT_EQ(stats.executions, 2u);
  EXPECT_EQ(stats.artifacts, 2u);
  EXPECT_EQ(stats.events, 3u);
  EXPECT_EQ(stats.segmenter.cells, 1u);
}

TEST_F(SessionFeed, WatermarkSealsAndLateEventsReseal) {
  SessionOptions options;
  options.segmenter.seal_grace_hours = 48.0;
  ProvenanceSession session(options);
  FeedPrefix(session);
  EXPECT_EQ(session.segmenter().TakeSealed().size(), 0u);

  // A second trainer far past the grace window seals the first cell.
  ASSERT_TRUE(session
                  .Ingest(ExecRecord(3, ExecutionType::kTrainer, 100 * kHour,
                                     101 * kHour, 10.0))
                  .ok());
  ASSERT_TRUE(
      session.Ingest(EventRecord(3, 1, EventKind::kInput, 100 * kHour))
          .ok());
  std::vector<size_t> sealed = session.segmenter().TakeSealed();
  ASSERT_EQ(sealed.size(), 1u);
  EXPECT_EQ(session.segmenter().CellTrainer(sealed[0]), 2);
  EXPECT_TRUE(session.segmenter().CellSealed(sealed[0]));
  EXPECT_EQ(session.stats().segmenter.reseals, 0u);

  // A very late evaluator consuming the sealed graphlet's model marks
  // the cell stale (descendant growth), counted as a reseal. Nothing
  // reads the cell, so nothing is extracted: it stays sealed and is not
  // reported again.
  const size_t extractions = session.stats().segmenter.extractions;
  ASSERT_TRUE(session
                  .Ingest(ExecRecord(4, ExecutionType::kEvaluator,
                                     102 * kHour, 103 * kHour))
                  .ok());
  ASSERT_TRUE(
      session.Ingest(EventRecord(4, 2, EventKind::kInput, 102 * kHour))
          .ok());
  EXPECT_EQ(session.stats().segmenter.reseals, 1u);
  EXPECT_EQ(session.stats().segmenter.extractions, extractions);
  EXPECT_TRUE(session.segmenter().CellSealed(sealed[0]));
  EXPECT_TRUE(session.segmenter().TakeSealed().empty());
  EXPECT_EQ(session.segmenter().CellGraphlet(sealed[0]).executions,
            (std::vector<ExecutionId>{1, 2}));

  // Reading the cell re-extracts it once and returns the grown graphlet.
  EXPECT_EQ(session.segmenter().ExtractNow(sealed[0]).executions,
            (std::vector<ExecutionId>{1, 2, 4}));
  EXPECT_EQ(session.stats().segmenter.extractions, extractions + 1);
  EXPECT_EQ(session.segmenter().ExtractNow(sealed[0]).executions,
            (std::vector<ExecutionId>{1, 2, 4}));
  EXPECT_EQ(session.stats().segmenter.extractions, extractions + 1);
  EXPECT_EQ(session.stats().segmenter.reseals, 1u);

  auto result = session.Finish();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->graphlets.size(), 2u);
  // The stale graphlet picked up the late evaluator.
  EXPECT_EQ(result->graphlets[0].executions,
            (std::vector<ExecutionId>{1, 2, 4}));
}

TEST(StreamSessionTest, OutOfOrderExecutionIdIsInvalidArgument) {
  ProvenanceSession session;
  ProvenanceRecord record =
      ExecRecord(5, ExecutionType::kExampleGen, 0, 10);
  common::Status status = session.Ingest(record);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, OutOfOrderArtifactIdIsInvalidArgument) {
  ProvenanceSession session;
  common::Status status =
      session.Ingest(ArtifactRecord(2, ArtifactType::kExamples, 0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, EventBeforeEndpointsIsInvalidArgument) {
  ProvenanceSession session;
  common::Status status =
      session.Ingest(EventRecord(1, 1, EventKind::kOutput, 0));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(StreamSessionTest, ErrorsAreStickyAndPoisonFinish) {
  ProvenanceSession session;
  ASSERT_FALSE(
      session.Ingest(ArtifactRecord(7, ArtifactType::kExamples, 0)).ok());
  // A record that would otherwise be valid is rejected with the original
  // error.
  common::Status status = session.Ingest(
      ExecRecord(1, ExecutionType::kExampleGen, 0, 10));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(session.Finish().ok());
}

TEST(StreamSessionTest, IngestAfterFinishIsFailedPrecondition) {
  ProvenanceSession session;
  ASSERT_TRUE(session.Finish().ok());
  common::Status status = session.Ingest(
      ExecRecord(1, ExecutionType::kExampleGen, 0, 10));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(session.Finish().ok());  // double Finish also rejected
}

/// The borrowed view BinaryStoreCursor would yield for `record`;
/// `properties` holds the property refs the view points into.
metadata::RecordRef ViewOf(const ProvenanceRecord& record,
                           std::vector<metadata::PropertyRef>* properties) {
  metadata::RecordRef view;
  properties->clear();
  const auto borrow = [&](const auto& owned) {
    for (const auto& [key, value] : owned) {
      properties->push_back({key, metadata::BorrowProperty(value)});
    }
  };
  switch (record.kind) {
    case ProvenanceRecord::Kind::kContext:
      view.kind = metadata::RecordRef::Kind::kContext;
      view.id = record.context.id;
      view.context_name = record.context.name;
      break;
    case ProvenanceRecord::Kind::kExecution:
      view.kind = metadata::RecordRef::Kind::kExecution;
      view.id = record.execution.id;
      view.execution_type = record.execution.type;
      view.start_time = record.execution.start_time;
      view.end_time = record.execution.end_time;
      view.succeeded = record.execution.succeeded;
      view.compute_cost = record.execution.compute_cost;
      borrow(record.execution.properties);
      break;
    case ProvenanceRecord::Kind::kArtifact:
      view.kind = metadata::RecordRef::Kind::kArtifact;
      view.id = record.artifact.id;
      view.artifact_type = record.artifact.type;
      view.create_time = record.artifact.create_time;
      borrow(record.artifact.properties);
      break;
    case ProvenanceRecord::Kind::kEvent:
      view.kind = metadata::RecordRef::Kind::kEvent;
      view.event = record.event;
      break;
  }
  view.properties = *properties;
  return view;
}

/// The flight recorder's error entries (message + violating record's
/// kind, id, time and record_index), without their wall-clock stamps.
std::vector<std::string> ErrorEntries(const ProvenanceSession& session) {
  std::vector<std::string> errors;
  const obs::Json dump = session.flight_recorder().ToJson();
  for (const obs::Json& entry : dump.Find("entries")->items()) {
    if (entry.Find("kind")->AsString() == "error") {
      errors.push_back(entry.Find("detail")->Dump());
    }
  }
  return errors;
}

/// Hostile feeds must poison an owned-record session and a view session
/// alike: one ingest body serves both forms.
TEST(StreamSessionTest, PoisoningIsIdenticalAcrossRecordForms) {
  using metadata::RecordRef;
  ProvenanceRecord labelled =
      ExecRecord(1, ExecutionType::kExampleGen, 0, 1 * kHour);
  labelled.execution.properties["state"] = std::string("COMPLETE");
  labelled.execution.properties["attempt"] = int64_t{2};
  struct Feed {
    const char* name;
    std::vector<ProvenanceRecord> records;
    /// Finish after this many records (SIZE_MAX: never).
    size_t finish_after = SIZE_MAX;
  };
  const std::vector<Feed> feeds = {
      {"mismatched context id",
       {ContextRecord(5, "pipeline_0"), labelled}},
      {"out-of-order execution id",
       {ContextRecord(1, "pipeline_0"), labelled,
        ExecRecord(3, ExecutionType::kTrainer, 2 * kHour, 3 * kHour),
        ExecRecord(2, ExecutionType::kTrainer, 2 * kHour, 3 * kHour)}},
      {"out-of-order artifact id",
       {ContextRecord(1, "pipeline_0"), labelled,
        ArtifactRecord(1, ArtifactType::kExamples, 1 * kHour),
        ArtifactRecord(3, ArtifactType::kExamples, 1 * kHour)}},
      {"event before its endpoints",
       {ContextRecord(1, "pipeline_0"), labelled,
        EventRecord(1, 1, EventKind::kOutput, 1 * kHour),
        ArtifactRecord(1, ArtifactType::kExamples, 1 * kHour)}},
      {"ingest after Finish",
       {ContextRecord(1, "pipeline_0"), labelled,
        ArtifactRecord(1, ArtifactType::kExamples, 1 * kHour)},
       /*finish_after=*/2},
  };
  for (const Feed& feed : feeds) {
    SCOPED_TRACE(feed.name);
    ProvenanceSession owned;
    ProvenanceSession viewed;
    std::vector<metadata::PropertyRef> properties;
    size_t failures = 0;
    for (size_t i = 0; i < feed.records.size(); ++i) {
      if (i == feed.finish_after) {
        ASSERT_TRUE(owned.Finish().ok());
        ASSERT_TRUE(viewed.Finish().ok());
      }
      const common::Status a = owned.Ingest(feed.records[i]);
      const common::Status b =
          viewed.Ingest(ViewOf(feed.records[i], &properties));
      EXPECT_EQ(a.code(), b.code()) << "record " << i;
      EXPECT_EQ(a.message(), b.message()) << "record " << i;
      if (!a.ok()) ++failures;
    }
    EXPECT_GT(failures, 0u);
    EXPECT_EQ(owned.status().code(), viewed.status().code());
    EXPECT_EQ(owned.status().message(), viewed.status().message());

    const SessionStats sa = owned.stats();
    const SessionStats sb = viewed.stats();
    EXPECT_EQ(sa.records, sb.records);
    EXPECT_EQ(sa.contexts, sb.contexts);
    EXPECT_EQ(sa.executions, sb.executions);
    EXPECT_EQ(sa.artifacts, sb.artifacts);
    EXPECT_EQ(sa.events, sb.events);
    EXPECT_EQ(sa.segmenter.cells, sb.segmenter.cells);
    EXPECT_EQ(sa.segmenter.events, sb.segmenter.events);
    EXPECT_EQ(owned.Health().ToJson().Dump(),
              viewed.Health().ToJson().Dump());

    const std::vector<std::string> errors = ErrorEntries(owned);
    EXPECT_EQ(errors, ErrorEntries(viewed));
    EXPECT_EQ(owned.flight_recorder().ToJson().Find("records")->Dump(),
              viewed.flight_recorder().ToJson().Find("records")->Dump());
#ifndef MLPROV_OBS_NOOP
    // Ingest after Finish is refused before it reaches the body, so it
    // latches nothing; every other violation poisons once.
    EXPECT_EQ(errors.size(), feed.finish_after == SIZE_MAX ? 1u : 0u);
#endif
    // The stores replicated up to the violation are the same too.
    EXPECT_EQ(metadata::SerializeStoreBinary(owned.store()),
              metadata::SerializeStoreBinary(viewed.store()));
  }
}

}  // namespace
}  // namespace mlprov::stream
