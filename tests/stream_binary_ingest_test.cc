// Cross-format equivalence of the ingest paths (ISSUE 7): feeding a
// serialized corpus through the text path (DeserializeStore +
// ReplayStore) and through the zero-copy binary path (BinaryStoreCursor
// + Ingest(RecordRef)) must produce byte-identical analyses —
// segmentation fingerprints, replicated stores, and scoring decisions —
// at any thread count.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/segmentation.h"
#include "core/waste_mitigation.h"
#include "metadata/binary_serialization.h"
#include "metadata/serialization.h"
#include "simulator/corpus_generator.h"
#include "simulator/provenance_sink.h"
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/replay.h"
#include "stream/session.h"

namespace mlprov::stream {
namespace {

sim::CorpusConfig SmallConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 10;
  config.seed = 4242;
  config.horizon_days = 45.0;
  return config;
}

/// Feeds a binary corpus buffer through the zero-copy path.
common::Status IngestBinary(const std::string& binary,
                            ProvenanceSession& session) {
  auto cursor = metadata::BinaryStoreCursor::Open(binary);
  if (!cursor.ok()) return cursor.status();
  metadata::RecordRef record;
  while (cursor->Next(&record)) {
    MLPROV_RETURN_IF_ERROR(session.Ingest(record));
  }
  return cursor->status();
}

/// Feeds a text corpus buffer through the materialize-then-replay path.
common::Status IngestText(const std::string& text,
                          ProvenanceSession& session) {
  auto store = metadata::DeserializeStore(text);
  if (!store.ok()) return store.status();
  return ReplayStore(*store, session);
}

TEST(StreamBinaryIngestTest, TextAndBinaryFeedsAreByteIdentical) {
  // Three inputs, one result: the live record feed (ReplayTrace), the
  // text file replayed through ReplayStore, and the zero-copy MLPB feed.
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    const std::string text = metadata::SerializeStore(trace.store);
    const std::string binary = metadata::SerializeStoreBinary(trace.store);

    ProvenanceSession live_session;
    ASSERT_TRUE(ReplayTrace(trace, live_session).ok());
    ProvenanceSession text_session;
    ASSERT_TRUE(IngestText(text, text_session).ok());
    ProvenanceSession binary_session;
    ASSERT_TRUE(IngestBinary(binary, binary_session).ok());

    // Replicated stores serialize to the trace's own bytes, in both
    // formats.
    for (const ProvenanceSession* session :
         {&live_session, &text_session, &binary_session}) {
      EXPECT_EQ(metadata::SerializeStore(session->store()), text);
      EXPECT_EQ(metadata::SerializeStoreBinary(session->store()), binary);
      EXPECT_EQ(session->stats().records, live_session.stats().records);
    }

    auto live_result = live_session.Finish();
    auto text_result = text_session.Finish();
    auto binary_result = binary_session.Finish();
    ASSERT_TRUE(live_result.ok());
    ASSERT_TRUE(text_result.ok());
    ASSERT_TRUE(binary_result.ok());
    const uint64_t batch =
        FingerprintGraphlets(core::SegmentTrace(trace.store));
    EXPECT_EQ(FingerprintGraphlets(live_result->graphlets), batch);
    EXPECT_EQ(FingerprintGraphlets(text_result->graphlets), batch);
    EXPECT_EQ(FingerprintGraphlets(binary_result->graphlets), batch);
  }
}

/// Keeps every record a feeder emits.
struct RecordingSink : sim::ProvenanceSink {
  std::vector<sim::ProvenanceRecord> records;
  void OnRecord(const sim::ProvenanceRecord& record) override {
    records.push_back(record);
  }
};

TEST(StreamBinaryIngestTest, FeederWalksABareStoreInTheTracesOrder) {
  // ProvenanceFeeder over a trace's bare store emits the trace walk's
  // record sequence, node for node, without span stats or span contexts.
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  size_t spans = 0;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    RecordingSink from_trace;
    sim::ProvenanceFeeder(&from_trace).Finish(trace);
    RecordingSink from_store;
    sim::ProvenanceFeeder bare(&from_store);
    bare.Finish(trace.store);
    EXPECT_EQ(bare.records_emitted(), from_store.records.size());
    ASSERT_EQ(from_store.records.size(), from_trace.records.size());
    for (size_t i = 0; i < from_trace.records.size(); ++i) {
      const sim::ProvenanceRecord& want = from_trace.records[i];
      const sim::ProvenanceRecord& got = from_store.records[i];
      ASSERT_EQ(got.kind, want.kind) << "record " << i;
      switch (want.kind) {
        case sim::ProvenanceRecord::Kind::kContext:
          EXPECT_EQ(got.context.id, want.context.id);
          EXPECT_EQ(got.context.name, want.context.name);
          EXPECT_TRUE(got.context.executions.empty());
          EXPECT_TRUE(got.context.artifacts.empty());
          break;
        case sim::ProvenanceRecord::Kind::kExecution:
          EXPECT_EQ(got.execution.id, want.execution.id);
          EXPECT_EQ(got.execution.properties, want.execution.properties);
          EXPECT_TRUE(want.span.valid());
          break;
        case sim::ProvenanceRecord::Kind::kArtifact:
          EXPECT_EQ(got.artifact.id, want.artifact.id);
          EXPECT_EQ(got.artifact.properties, want.artifact.properties);
          if (want.span_stats != nullptr) ++spans;
          break;
        case sim::ProvenanceRecord::Kind::kEvent:
          EXPECT_EQ(got.event.execution, want.event.execution);
          EXPECT_EQ(got.event.artifact, want.event.artifact);
          EXPECT_EQ(got.event.kind, want.event.kind);
          EXPECT_EQ(got.event.time, want.event.time);
          break;
      }
      EXPECT_EQ(got.span_stats, nullptr) << "record " << i;
      EXPECT_FALSE(got.span.valid()) << "record " << i;
      EXPECT_EQ(got.span.span_id, 0u) << "record " << i;
    }
  }
  EXPECT_GT(spans, 0u);  // the trace walk did hand out span stats
}

TEST(StreamBinaryIngestTest, ScoringDecisionsMatchAcrossFormats) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  auto segmented = core::SegmentCorpus(corpus);
  auto dataset = core::BuildWasteDataset(corpus, segmented);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  auto scorer = OnlineScorer::Train(*dataset);
  ASSERT_TRUE(scorer.ok()) << scorer.status();

  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    const std::string text = metadata::SerializeStore(trace.store);
    const std::string binary = metadata::SerializeStoreBinary(trace.store);

    SessionOptions options;
    options.scorer = &*scorer;
    ProvenanceSession text_session(options);
    ASSERT_TRUE(IngestText(text, text_session).ok());
    ProvenanceSession binary_session(options);
    ASSERT_TRUE(IngestBinary(binary, binary_session).ok());

    auto text_result = text_session.Finish();
    auto binary_result = binary_session.Finish();
    ASSERT_TRUE(text_result.ok());
    ASSERT_TRUE(binary_result.ok());
    ASSERT_EQ(text_result->decisions.size(),
              binary_result->decisions.size());
    for (size_t i = 0; i < text_result->decisions.size(); ++i) {
      const ScoreDecision& a = text_result->decisions[i];
      const ScoreDecision& b = binary_result->decisions[i];
      EXPECT_EQ(a.trainer, b.trainer);
      EXPECT_EQ(a.abort, b.abort);
      EXPECT_EQ(a.score, b.score);  // bit-exact, not approximate
      EXPECT_EQ(a.threshold, b.threshold);
      EXPECT_EQ(a.variant_scores, b.variant_scores);
      EXPECT_EQ(a.variant_scored, b.variant_scored);
      EXPECT_EQ(a.avoided_hours, b.avoided_hours);
      EXPECT_EQ(a.lost_push, b.lost_push);
    }
    EXPECT_EQ(text_result->waste.aborts, binary_result->waste.aborts);
    EXPECT_EQ(text_result->waste.avoided_hours,
              binary_result->waste.avoided_hours);
  }
}

TEST(StreamBinaryIngestTest, BinaryFeedIsIdenticalAcrossThreadCounts) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  std::vector<std::string> binaries;
  binaries.reserve(corpus.pipelines.size());
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    binaries.push_back(metadata::SerializeStoreBinary(trace.store));
  }
  auto fingerprints = [&](int threads) {
    common::SetGlobalThreads(threads);
    std::vector<uint64_t> out(binaries.size());
    common::ParallelFor(binaries.size(), [&](size_t i) {
      ProvenanceSession session;
      (void)IngestBinary(binaries[i], session);
      auto result = session.Finish();
      out[i] = result.ok() ? FingerprintGraphlets(result->graphlets) : 0;
    });
    return out;
  };
  const std::vector<uint64_t> t1 = fingerprints(1);
  EXPECT_EQ(t1, fingerprints(4));
  EXPECT_EQ(t1, fingerprints(8));
  common::SetGlobalThreads(1);
  // And the parallel results match the text path serially.
  for (size_t i = 0; i < corpus.pipelines.size(); ++i) {
    ProvenanceSession session;
    ASSERT_TRUE(
        IngestText(metadata::SerializeStore(corpus.pipelines[i].store),
                   session)
            .ok());
    auto result = session.Finish();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(t1[i], FingerprintGraphlets(result->graphlets));
  }
}

TEST(StreamBinaryIngestTest, LenientSalvageOfAnyTruncatedPrefixIsSafe) {
  // The lenient-reader property (the WAL salvage contract mirrors it,
  // frame-exactly, in stream_wal_test): for *every* truncation point of
  // a binary buffer, lenient deserialization must succeed, salvage at
  // most what the intact buffer holds, never fabricate nodes the strict
  // reader would not produce, and degrade to the byte-identical strict
  // result at full length.
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const std::string binary =
      metadata::SerializeStoreBinary(corpus.pipelines[0].store);
  auto full = metadata::DeserializeStoreBinary(binary);
  ASSERT_TRUE(full.ok()) << full.status();

  // A torn magic/version header is not salvageable — it must fail
  // cleanly (no crash), not fabricate an empty store.
  const size_t header = sizeof(metadata::kBinaryStoreMagic) + 1;
  for (size_t len = 0; len < header; ++len) {
    metadata::LenientStats stats;
    EXPECT_FALSE(metadata::DeserializeStoreBinaryLenient(
                     binary.substr(0, len), &stats)
                     .ok())
        << "len " << len;
  }

  const size_t step = binary.size() > 4096 ? binary.size() / 600 + 1 : 1;
  for (size_t len = header; len <= binary.size(); len += step) {
    metadata::LenientStats stats;
    auto salvaged =
        metadata::DeserializeStoreBinaryLenient(binary.substr(0, len),
                                                &stats);
    ASSERT_TRUE(salvaged.ok()) << "len " << len << ": "
                               << salvaged.status();
    EXPECT_LE(salvaged->num_executions(), full->num_executions());
    EXPECT_LE(salvaged->num_artifacts(), full->num_artifacts());
    EXPECT_LE(salvaged->num_contexts(), full->num_contexts());
    EXPECT_LE(salvaged->num_events(), full->num_events());
    // Salvaged nodes are the intact buffer's nodes (ids are dense, so
    // position identifies them): timestamps must match field-for-field.
    for (size_t i = 0; i < salvaged->num_executions(); ++i) {
      EXPECT_EQ(salvaged->executions()[i].start_time,
                full->executions()[i].start_time)
          << "len " << len << " exec " << i;
    }
    for (size_t i = 0; i < salvaged->num_artifacts(); ++i) {
      EXPECT_EQ(salvaged->artifacts()[i].create_time,
                full->artifacts()[i].create_time)
          << "len " << len << " artifact " << i;
    }
  }

  metadata::LenientStats stats;
  auto whole = metadata::DeserializeStoreBinaryLenient(binary, &stats);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ(stats.malformed_lines, 0u);
  EXPECT_EQ(metadata::SerializeStore(*whole), metadata::SerializeStore(*full));
}

TEST(StreamBinaryIngestTest, OutOfOrderRecordPoisonsSession) {
  ProvenanceSession session;
  metadata::RecordRef record;
  record.kind = metadata::RecordRef::Kind::kArtifact;
  record.id = 7;  // expected 1
  const common::Status status = session.Ingest(record);
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(session.status().ok());
  // Sticky: a well-formed record is rejected with the same error.
  record.id = 1;
  EXPECT_FALSE(session.Ingest(record).ok());
  EXPECT_FALSE(session.Finish().ok());
}

TEST(StreamBinaryIngestTest, CursorCorruptionPoisonsNotCrashes) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const std::string binary =
      metadata::SerializeStoreBinary(corpus.pipelines[0].store);
  // Flip one byte somewhere in the body and drive the full ingest; the
  // cursor either opens and later fails sticky, or refuses to open.
  for (size_t pos = 5; pos < binary.size(); pos += 11) {
    std::string mutant = binary;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x55);
    ProvenanceSession session;
    (void)IngestBinary(mutant, session);
  }
}

}  // namespace
}  // namespace mlprov::stream
