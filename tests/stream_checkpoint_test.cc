#include "stream/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/status.h"
#include "core/graphlet_analysis.h"
#include "core/waste_mitigation.h"
#include "simulator/corpus_generator.h"
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/session.h"
#include "stream/supervisor.h"

namespace mlprov::stream {
namespace {

namespace fs = std::filesystem;
using common::StatusCode;

sim::CorpusConfig SmallConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 4;
  config.seed = 4242;
  config.horizon_days = 45.0;
  return config;
}

class StreamCheckpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    corpus_ = new sim::Corpus(sim::GenerateCorpus(SmallConfig()));
  }
  static void TearDownTestSuite() {
    delete corpus_;
    corpus_ = nullptr;
  }

  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("mlprov_ckpt_" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static sim::Corpus* corpus_;
  std::string dir_;
};

sim::Corpus* StreamCheckpointTest::corpus_ = nullptr;

using Feed = std::vector<const sim::ProvenanceRecord*>;

/// Runs `feed` uninterrupted and returns the result fingerprint.
uint64_t UninterruptedFingerprint(const Feed& feed,
                                  const SessionOptions& options = {}) {
  ProvenanceSession session(options);
  for (const sim::ProvenanceRecord* record : feed) {
    EXPECT_TRUE(session.Ingest(*record).ok());
  }
  auto result = session.Finish();
  EXPECT_TRUE(result.ok()) << result.status();
  return FingerprintSessionResult(*result);
}

/// The feed ProvenanceFeeder emits for `source`'s trace.
Feed FeederOrder(TraceRecordSource& source) {
  Feed feed;
  for (uint64_t i = 0; i < source.size(); ++i) feed.push_back(source.Get(i));
  return feed;
}

/// Another order the feed contract allows: contexts, then every
/// execution, then every artifact, then every event. The watermark
/// jumps to the end of the trace before any event arrives, so cells
/// seal early and reseal as their events stream in.
Feed KindByKindOrder(TraceRecordSource& source) {
  Feed feed = FeederOrder(source);
  std::stable_sort(feed.begin(), feed.end(),
                   [](const sim::ProvenanceRecord* a,
                      const sim::ProvenanceRecord* b) {
                     return a->kind < b->kind;
                   });
  return feed;
}

void ExpectSameProgress(const ProvenanceSession& restored,
                        const ProvenanceSession& original) {
  const SessionStats got = restored.stats();
  const SessionStats want = original.stats();
  EXPECT_EQ(got.records, want.records);
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.segmenter.cells, want.segmenter.cells);
  EXPECT_EQ(got.segmenter.sealed, want.segmenter.sealed);
  EXPECT_EQ(got.segmenter.reseals, want.segmenter.reseals);
  EXPECT_EQ(got.segmenter.extractions, want.segmenter.extractions);
  EXPECT_EQ(got.segmenter.events, want.segmenter.events);
  const SessionHealth got_health = restored.Health();
  const SessionHealth want_health = original.Health();
  EXPECT_EQ(got_health.watermark, want_health.watermark);
  EXPECT_EQ(got_health.seal_lag_hours, want_health.seal_lag_hours);
  EXPECT_EQ(got_health.open_cells, want_health.open_cells);
}

TEST_F(StreamCheckpointTest, SnapshotAtEveryQuarterRestoresByteIdentical) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ASSERT_GT(source.size(), 8u);

  // Seal and reseal timing follow the order records arrived in, so a
  // restore must replay that order, whichever order the feed had.
  const std::pair<std::string, Feed> feeds[] = {
      {"feeder order", FeederOrder(source)},
      {"kind by kind", KindByKindOrder(source)}};
  for (const auto& [name, feed] : feeds) {
    const uint64_t expected = UninterruptedFingerprint(feed);
    size_t reseals = 0;
    for (int quarter = 1; quarter <= 3; ++quarter) {
      SCOPED_TRACE(name + ", quarter " + std::to_string(quarter));
      const size_t split = feed.size() * quarter / 4;
      ProvenanceSession first;
      for (size_t i = 0; i < split; ++i) {
        ASSERT_TRUE(first.Ingest(*feed[i]).ok());
      }
      std::string payload;
      first.EncodeState(payload);

      ProvenanceSession second;
      auto restored = second.RestoreState(payload);
      ASSERT_TRUE(restored.ok()) << restored.message();
      EXPECT_TRUE(second.recovered());
      EXPECT_TRUE(second.Health().recovered);
      ExpectSameProgress(second, first);
      reseals += first.stats().segmenter.reseals;
      for (size_t i = split; i < feed.size(); ++i) {
        ASSERT_TRUE(second.Ingest(*feed[i]).ok());
      }
      auto result = second.Finish();
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(FingerprintSessionResult(*result), expected);
    }
    if (name == "kind by kind") {
      EXPECT_GT(reseals, 0u);  // cells sealed before their events came
    }
  }
}

TEST_F(StreamCheckpointTest, ScoringSessionsSnapshotTheScorerPosition) {
  auto segmented = core::SegmentCorpus(*corpus_);
  auto dataset = core::BuildWasteDataset(*corpus_, segmented);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  auto scorer = OnlineScorer::Train(*dataset);
  ASSERT_TRUE(scorer.ok()) << scorer.status();

  SessionOptions options;
  options.scorer = &*scorer;
  const sim::PipelineTrace& trace = corpus_->pipelines[1];
  TraceRecordSource source(trace);
  const uint64_t expected =
      UninterruptedFingerprint(FeederOrder(source), options);

  const uint64_t split = source.size() / 2;
  ProvenanceSession first(options);
  for (uint64_t i = 0; i < split; ++i) {
    ASSERT_TRUE(first.Ingest(*source.Get(i)).ok());
  }
  std::string payload;
  first.EncodeState(payload);

  // Recovery must attach the same scorer; a bare session is rejected.
  ProvenanceSession bare;
  EXPECT_EQ(bare.RestoreState(payload).code(),
            StatusCode::kFailedPrecondition);

  ProvenanceSession second(options);
  ASSERT_TRUE(second.RestoreState(payload).ok());
  for (uint64_t i = split; i < source.size(); ++i) {
    ASSERT_TRUE(second.Ingest(*source.Get(i)).ok());
  }
  auto result = second.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(FingerprintSessionResult(*result), expected);
  EXPECT_FALSE(result->decisions.empty());
}

TEST_F(StreamCheckpointTest, RestoreRequiresAFreshSession) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  ASSERT_TRUE(session.Ingest(*source.Get(0)).ok());
  std::string payload;
  session.EncodeState(payload);

  ProvenanceSession used;
  ASSERT_TRUE(used.Ingest(*source.Get(0)).ok());
  EXPECT_EQ(used.RestoreState(payload).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(StreamCheckpointTest, FilesRoundTripWithCrcProtection) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  const uint64_t split = source.size() / 2;
  ProvenanceSession session;
  for (uint64_t i = 0; i < split; ++i) {
    ASSERT_TRUE(session.Ingest(*source.Get(i)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, split, session).ok());

  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 1u);
  EXPECT_EQ(listed->front().records, split);

  auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->records, split);
  EXPECT_EQ(loaded->path, listed->front().path);
  EXPECT_TRUE(loaded->rejected.empty());

  std::string direct;
  session.EncodeState(direct);
  EXPECT_EQ(loaded->payload, direct);
}

TEST_F(StreamCheckpointTest, DamagedNewestFallsBackToOlder) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  uint64_t fed = 0;
  for (; fed < source.size() / 3; ++fed) {
    ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());
  const uint64_t older = fed;
  for (; fed < source.size() / 2; ++fed) {
    ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());

  // Flip a byte in the newest file: CRC must reject it.
  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  const std::string newest = listed->back().path;
  {
    std::ifstream in(newest, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes[bytes.size() / 2] =
        static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->records, older);
  ASSERT_EQ(loaded->rejected.size(), 1u);
  EXPECT_EQ(loaded->rejected.front(), newest);

  // The fallback payload still restores.
  ProvenanceSession recovered;
  EXPECT_TRUE(recovered.RestoreState(loaded->payload).ok());
}

TEST_F(StreamCheckpointTest, OtherFormatVersionFallsBackToOlder) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  uint64_t fed = 0;
  for (; fed < source.size() / 3; ++fed) {
    ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());
  const uint64_t older = fed;
  for (; fed < source.size() / 2; ++fed) {
    ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());

  // Rewrite the newest file as version 1 with a valid CRC: only the
  // header check stands between it and a misread payload.
  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  const std::string newest = listed->back().path;
  {
    std::ifstream in(newest, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_EQ(static_cast<uint8_t>(bytes[4]), kCheckpointVersion);
    bytes[4] = 1;
    bytes.resize(bytes.size() - 4);
    const uint32_t crc = common::Crc32c(bytes);
    for (int i = 0; i < 4; ++i) {
      bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
    }
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->records, older);
  ASSERT_EQ(loaded->rejected.size(), 1u);
  EXPECT_EQ(loaded->rejected.front(), newest);
  ProvenanceSession recovered;
  EXPECT_TRUE(recovered.RestoreState(loaded->payload).ok());
}

TEST_F(StreamCheckpointTest, PruneRemovesTempFilesACrashLeftBehind) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  for (uint64_t i = 0; i < source.size() / 2; ++i) {
    ASSERT_TRUE(session.Ingest(*source.Get(i)).ok());
  }
  // What a crash between WriteCheckpoint's write and rename leaves.
  const std::string leftover = dir_ + "/ckpt_00000000000000000007.ckpt.tmp";
  const std::string unrelated = dir_ + "/notes.tmp";
  for (const std::string& path : {leftover, unrelated}) {
    std::ofstream(path, std::ios::binary) << "partial";
  }
  ASSERT_TRUE(WriteCheckpoint(dir_, source.size() / 2, session).ok());
  auto oldest_kept = PruneCheckpoints(dir_, 2);
  ASSERT_TRUE(oldest_kept.ok()) << oldest_kept.status();
  EXPECT_EQ(*oldest_kept, source.size() / 2);
  EXPECT_FALSE(fs::exists(leftover));
  EXPECT_TRUE(fs::exists(unrelated));
  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 1u);
}

TEST_F(StreamCheckpointTest, PruneKeepsTheNewestAndReportsTheOldestKept) {
  const sim::PipelineTrace& trace = corpus_->pipelines[0];
  TraceRecordSource source(trace);
  ProvenanceSession session;
  std::vector<uint64_t> written;
  uint64_t fed = 0;
  for (int i = 0; i < 5; ++i) {
    const uint64_t target = source.size() * (i + 1) / 6;
    for (; fed < target; ++fed) {
      ASSERT_TRUE(session.Ingest(*source.Get(fed)).ok());
    }
    ASSERT_TRUE(WriteCheckpoint(dir_, fed, session).ok());
    written.push_back(fed);
  }

  auto oldest_kept = PruneCheckpoints(dir_, 2);
  ASSERT_TRUE(oldest_kept.ok());
  EXPECT_EQ(*oldest_kept, written[3]);
  auto listed = ListCheckpoints(dir_);
  ASSERT_TRUE(listed.ok());
  ASSERT_EQ(listed->size(), 2u);
  EXPECT_EQ(listed->front().records, written[3]);
  EXPECT_EQ(listed->back().records, written[4]);

  auto all = PruneCheckpoints(dir_, 1);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, written[4]);
}

TEST_F(StreamCheckpointTest, EmptyDirectoryIsAFreshStart) {
  auto loaded = LoadNewestCheckpoint(dir_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE(loaded->found);
  auto missing = LoadNewestCheckpoint(dir_ + "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing->found);
  auto pruned = PruneCheckpoints(dir_, 3);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(*pruned, 0u);
}

}  // namespace
}  // namespace mlprov::stream
