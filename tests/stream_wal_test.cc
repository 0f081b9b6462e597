#include "stream/wal.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "dataspan/feature_stats.h"
#include "metadata/binary_serialization.h"
#include "metadata/types.h"
#include "simulator/provenance_sink.h"

namespace mlprov::stream {
namespace {

namespace fs = std::filesystem;
using metadata::ArtifactType;
using metadata::EventKind;
using metadata::ExecutionType;
using sim::ProvenanceRecord;

class StreamWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("mlprov_wal_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

/// A deterministic mixed-kind feed exercising every payload shape:
/// properties of all three tags, span stats, span contexts, negative
/// timestamps, and empty strings.
std::vector<ProvenanceRecord> MakeFeed(size_t n) {
  std::vector<ProvenanceRecord> feed;
  feed.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ProvenanceRecord record;
    switch (i % 4) {
      case 0: {
        record.kind = ProvenanceRecord::Kind::kContext;
        record.context.id = static_cast<int64_t>(i / 4 + 1);
        record.context.name = "pipeline_" + std::to_string(i);
        break;
      }
      case 1: {
        record.kind = ProvenanceRecord::Kind::kExecution;
        record.execution.id = static_cast<int64_t>(i);
        record.execution.type = ExecutionType::kTrainer;
        record.execution.start_time = static_cast<int64_t>(i) * 10 - 5;
        record.execution.end_time = static_cast<int64_t>(i) * 10 + 5;
        record.execution.succeeded = (i % 8) != 1;
        record.execution.compute_cost = 0.25 * static_cast<double>(i);
        record.execution.properties["state"] = std::string("COMPLETE");
        record.execution.properties["retry"] = static_cast<int64_t>(i % 3);
        record.execution.properties["cost"] = 1.5 + static_cast<double>(i);
        record.span.trace_id = i + 1;
        record.span.span_id = i + 2;
        break;
      }
      case 2: {
        record.kind = ProvenanceRecord::Kind::kArtifact;
        record.artifact.id = static_cast<int64_t>(i);
        record.artifact.type = ArtifactType::kExamples;
        record.artifact.create_time = static_cast<int64_t>(i) * 7;
        record.artifact.properties["uri"] =
            std::string("spans/") + std::to_string(i);
        break;
      }
      default: {
        record.kind = ProvenanceRecord::Kind::kEvent;
        record.event.execution = static_cast<int64_t>(i - 3);
        record.event.artifact = static_cast<int64_t>(i - 2);
        record.event.kind = (i % 8) < 4 ? EventKind::kInput
                                        : EventKind::kOutput;
        record.event.time = static_cast<int64_t>(i) * 3;
        break;
      }
    }
    feed.push_back(std::move(record));
  }
  return feed;
}

/// Span stats attached to artifact records of the feed.
dataspan::SpanStats MakeStats(size_t i) {
  dataspan::SpanStats stats;
  stats.span_number = static_cast<int64_t>(i);
  dataspan::FeatureStats f;
  f.name = "feature_" + std::to_string(i % 3);
  f.kind = (i % 2) == 0 ? dataspan::FeatureKind::kNumerical
                        : dataspan::FeatureKind::kCategorical;
  f.bins[i % f.bins.size()] = 0.5 * static_cast<double>(i) + 1.0;
  f.top_term_counts[i % f.top_term_counts.size()] =
      static_cast<double>(i) + 2.0;
  f.unique_terms = static_cast<int64_t>(i % 17);
  f.total_count = static_cast<int64_t>(100 + i);
  stats.features.push_back(std::move(f));
  return stats;
}

bool RecordsEqual(const ProvenanceRecord& a, const ProvenanceRecord& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case ProvenanceRecord::Kind::kContext:
      return a.context.id == b.context.id && a.context.name == b.context.name;
    case ProvenanceRecord::Kind::kExecution:
      return a.execution.id == b.execution.id &&
             a.execution.type == b.execution.type &&
             a.execution.start_time == b.execution.start_time &&
             a.execution.end_time == b.execution.end_time &&
             a.execution.succeeded == b.execution.succeeded &&
             a.execution.compute_cost == b.execution.compute_cost &&
             a.execution.properties == b.execution.properties &&
             a.span.trace_id == b.span.trace_id &&
             a.span.span_id == b.span.span_id;
    case ProvenanceRecord::Kind::kArtifact:
      return a.artifact.id == b.artifact.id &&
             a.artifact.type == b.artifact.type &&
             a.artifact.create_time == b.artifact.create_time &&
             a.artifact.properties == b.artifact.properties;
    case ProvenanceRecord::Kind::kEvent:
      return a.event.execution == b.event.execution &&
             a.event.artifact == b.event.artifact &&
             a.event.kind == b.event.kind && a.event.time == b.event.time;
  }
  return false;
}

/// Writes the feed (span stats on every artifact record) and returns it.
std::vector<ProvenanceRecord> WriteFeed(WalWriter& wal, size_t n,
                                        std::vector<dataspan::SpanStats>&
                                            stats_storage) {
  std::vector<ProvenanceRecord> feed = MakeFeed(n);
  stats_storage.clear();
  stats_storage.reserve(n);  // stable addresses
  for (size_t i = 0; i < feed.size(); ++i) {
    if (feed[i].kind == ProvenanceRecord::Kind::kArtifact) {
      stats_storage.push_back(MakeStats(i));
      feed[i].span_stats =
          std::make_shared<const dataspan::SpanStats>(stats_storage.back());
    }
    EXPECT_TRUE(wal.Append(feed[i]).ok());
  }
  return feed;
}

/// Span stats of `features` features that each encode to the minimum:
/// empty name, one-byte svarints.
dataspan::SpanStatsPtr MinimalStats(size_t features) {
  auto stats = std::make_shared<dataspan::SpanStats>();
  stats->span_number = 3;
  stats->features.resize(features);
  return stats;
}

/// Replaces the frame at the start of `frame` with one whose artifact
/// claims `claimed` features, keeping the frame CRC-valid. The payload is
/// the same length, so only the count byte and the CRC change.
std::string ClaimFeatures(std::string frame, size_t count_at,
                          uint8_t claimed) {
  frame[count_at] = static_cast<char>(claimed);
  const uint32_t crc = common::Crc32c(frame.data(), frame.size() - 4);
  for (int i = 0; i < 4; ++i) {
    frame[frame.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return frame;
}

TEST_F(StreamWalTest, SpanStatsFeatureCountIsBoundedByTheFrame) {
  // A feature encodes to at least 164 bytes; a count the frame cannot
  // hold is rejected before anything is allocated, and the exact count
  // of minimal features still decodes.
  constexpr uint8_t kFeatures = 3;
  ProvenanceRecord record;
  record.kind = ProvenanceRecord::Kind::kArtifact;
  record.artifact.id = 1;
  record.artifact.type = ArtifactType::kExamples;
  record.span_stats = MinimalStats(kFeatures);
  std::string frame;
  walwire::EncodeFrame(record, /*seq=*/0, frame);

  // tag, seq, 4-byte padded length; then id, type, create time, no
  // properties, has-stats flag, span number, feature count.
  const size_t count_at = 1 + 1 + 4 + 1 + 1 + 1 + 1 + 1 + 1;
  ASSERT_EQ(static_cast<uint8_t>(frame[count_at]), kFeatures);
  ASSERT_EQ(frame.size(), count_at + 1 + kFeatures * 164u + 4);

  for (uint8_t claimed : {kFeatures, static_cast<uint8_t>(kFeatures + 1),
                          static_cast<uint8_t>(kFeatures * 164 / 8)}) {
    const std::string bytes = ClaimFeatures(frame, count_at, claimed);
    metadata::binwire::Reader in(bytes);
    WalEntry entry;
    EXPECT_EQ(walwire::DecodeFrame(in, &entry), claimed == kFeatures)
        << "claimed " << int{claimed};
    if (claimed == kFeatures) {
      ASSERT_NE(entry.record.span_stats, nullptr);
      EXPECT_EQ(entry.record.span_stats->NumFeatures(), kFeatures);
      EXPECT_TRUE(in.empty());
    }
  }
}

TEST_F(StreamWalTest, SyncPolicyParsesAndPrints) {
  EXPECT_STREQ(ToString(WalSyncPolicy::kNone), "none");
  EXPECT_STREQ(ToString(WalSyncPolicy::kInterval), "interval");
  EXPECT_STREQ(ToString(WalSyncPolicy::kEvery), "every");
  for (WalSyncPolicy policy : {WalSyncPolicy::kNone, WalSyncPolicy::kInterval,
                               WalSyncPolicy::kEvery}) {
    auto parsed = ParseWalSyncPolicy(ToString(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseWalSyncPolicy("fsync-maybe").ok());
}

TEST_F(StreamWalTest, RoundTripsEveryRecordShape) {
  WalOptions options;
  options.dir = dir_;
  options.sync = WalSyncPolicy::kEvery;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status();
  std::vector<dataspan::SpanStats> stats;
  const std::vector<ProvenanceRecord> feed = WriteFeed(*wal, 64, stats);
  ASSERT_TRUE(wal->Close().ok());

  auto recovered = ReadWal(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->first_seq, 0u);
  EXPECT_EQ(recovered->next_seq, feed.size());
  EXPECT_EQ(recovered->quarantined_records, 0u);
  EXPECT_EQ(recovered->torn_tail_bytes, 0u);
  ASSERT_EQ(recovered->entries.size(), feed.size());
  for (size_t i = 0; i < feed.size(); ++i) {
    WalEntry& entry = recovered->entries[i];
    EXPECT_EQ(entry.seq, i);
    EXPECT_TRUE(RecordsEqual(entry.View(), feed[i])) << "record " << i;
    const dataspan::SpanStatsPtr& stats = entry.record.span_stats;
    if (feed[i].span_stats != nullptr) {
      ASSERT_TRUE(stats != nullptr) << "record " << i;
      EXPECT_EQ(stats->span_number, feed[i].span_stats->span_number);
      ASSERT_EQ(stats->features.size(), feed[i].span_stats->features.size());
      EXPECT_EQ(stats->features[0].name, feed[i].span_stats->features[0].name);
      EXPECT_EQ(stats->features[0].bins, feed[i].span_stats->features[0].bins);
      EXPECT_EQ(stats->features[0].top_term_counts,
                feed[i].span_stats->features[0].top_term_counts);
      EXPECT_EQ(stats->features[0].unique_terms,
                feed[i].span_stats->features[0].unique_terms);
    } else {
      EXPECT_TRUE(stats == nullptr);
    }
  }
}

TEST_F(StreamWalTest, RotatesSegmentsAndReadsAcrossThem) {
  WalOptions options;
  options.dir = dir_;
  options.segment_max_bytes = 256;  // force many rotations
  options.flush_threshold_bytes = 32;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok()) << wal.status();
  std::vector<dataspan::SpanStats> stats;
  const auto feed = WriteFeed(*wal, 200, stats);
  ASSERT_TRUE(wal->Close().ok());

  auto recovered = ReadWal(dir_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_GT(recovered->segments, 3u);
  ASSERT_EQ(recovered->entries.size(), feed.size());
  EXPECT_EQ(recovered->quarantined_records, 0u);
  for (size_t i = 0; i < feed.size(); ++i) {
    EXPECT_EQ(recovered->entries[i].seq, i);
    EXPECT_TRUE(RecordsEqual(recovered->entries[i].View(), feed[i]));
  }
}

TEST_F(StreamWalTest, FromSeqSkipsCheckpointedPrefix) {
  WalOptions options;
  options.dir = dir_;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  WriteFeed(*wal, 40, stats);
  ASSERT_TRUE(wal->Close().ok());

  WalReadOptions read;
  read.from_seq = 25;
  auto recovered = ReadWal(dir_, read);
  ASSERT_TRUE(recovered.ok());
  ASSERT_EQ(recovered->entries.size(), 15u);
  EXPECT_EQ(recovered->entries.front().seq, 25u);
  EXPECT_EQ(recovered->first_seq, 0u);  // log still starts at 0
  EXPECT_EQ(recovered->next_seq, 40u);
}

TEST_F(StreamWalTest, EmptyOrMissingDirIsAFreshLog) {
  auto missing = ReadWal(dir_ + "/never_created");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->entries.empty());
  EXPECT_EQ(missing->segments, 0u);

  fs::create_directories(dir_);
  auto empty = ReadWal(dir_);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->entries.empty());
}

TEST_F(StreamWalTest, SimulateCrashDropsOnlyUnsyncedBytes) {
  WalOptions options;
  options.dir = dir_;
  options.sync = WalSyncPolicy::kInterval;
  options.sync_interval_records = 10;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  const auto feed = WriteFeed(*wal, 25, stats);
  // Synced through record 20 (two interval syncs); 5 records at risk.
  ASSERT_TRUE(wal->SimulateCrash(0).ok());

  auto recovered = ReadWal(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->entries.size(), 20u);
  EXPECT_EQ(recovered->quarantined_records, 0u);
  EXPECT_EQ(recovered->torn_tail_bytes, 0u);
  for (size_t i = 0; i < recovered->entries.size(); ++i) {
    EXPECT_TRUE(RecordsEqual(recovered->entries[i].View(), feed[i]));
  }
}

TEST_F(StreamWalTest, TornTailIsTruncatedAndAccounted) {
  WalOptions options;
  options.dir = dir_;
  options.sync = WalSyncPolicy::kInterval;
  options.sync_interval_records = 10;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  WriteFeed(*wal, 25, stats);
  const uint64_t unsynced = wal->appended_bytes() - wal->synced_bytes();
  ASSERT_GT(unsynced, 8u);
  // Keep part of the unsynced tail: whole frames replay, the final
  // partial frame is a torn tail.
  ASSERT_TRUE(wal->SimulateCrash(unsynced - 3).ok());

  auto recovered = ReadWal(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_GE(recovered->entries.size(), 20u);
  EXPECT_LT(recovered->entries.size(), 25u);
  EXPECT_EQ(recovered->quarantined_records, 0u);
  EXPECT_GT(recovered->torn_tail_bytes, 0u);
}

// Satellite: the lenient-salvage property, WAL side. For *every*
// truncation point of a one-segment log, salvage must (a) never fail,
// (b) recover exactly the whole frames that fit the kept prefix — i.e.
// equal strict deserialization of the intact prefix — and (c) report
// the remainder as torn tail, never as mid-log corruption.
TEST_F(StreamWalTest, EveryTruncatedPrefixSalvagesToTheIntactPrefix) {
  WalOptions options;
  options.dir = dir_;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  const auto feed = WriteFeed(*wal, 24, stats);
  ASSERT_TRUE(wal->Close().ok());

  std::string segment;
  for (const auto& file : fs::directory_iterator(dir_)) {
    segment = file.path().string();
  }
  ASSERT_FALSE(segment.empty());
  std::ifstream in(segment, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_FALSE(bytes.empty());

  // Frame boundaries via the strict codec: prefix_entries[len] = how
  // many whole frames an `len`-byte file contains.
  const size_t header_size = [&] {
    metadata::binwire::Reader cursor(bytes);
    cursor.p += 5;  // magic + version
    uint64_t start_seq = 0;
    EXPECT_TRUE(cursor.U64(&start_seq));
    return bytes.size() - cursor.remaining();
  }();
  std::vector<size_t> frame_end;  // cumulative end offset of frame i
  {
    metadata::binwire::Reader cursor(bytes);
    cursor.p += header_size;
    WalEntry entry;
    while (walwire::DecodeFrame(cursor, &entry)) {
      frame_end.push_back(bytes.size() - cursor.remaining());
    }
    ASSERT_EQ(frame_end.size(), feed.size());
    ASSERT_EQ(cursor.remaining(), 0u);
  }

  const std::string truncated_dir = dir_ + "_trunc";
  for (size_t len = 0; len <= bytes.size(); ++len) {
    fs::remove_all(truncated_dir);
    fs::create_directories(truncated_dir);
    {
      std::ofstream out(
          truncated_dir + "/" + fs::path(segment).filename().string(),
          std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    auto recovered = ReadWal(truncated_dir);
    ASSERT_TRUE(recovered.ok()) << "len " << len;
    size_t expect_frames = 0;
    while (expect_frames < frame_end.size() &&
           frame_end[expect_frames] <= len) {
      ++expect_frames;
    }
    if (len < header_size) {
      // Header itself torn: nothing replayable, whole file is tail.
      EXPECT_TRUE(recovered->entries.empty()) << "len " << len;
    } else {
      ASSERT_EQ(recovered->entries.size(), expect_frames) << "len " << len;
      for (size_t i = 0; i < expect_frames; ++i) {
        EXPECT_TRUE(RecordsEqual(recovered->entries[i].View(), feed[i]));
      }
      const size_t whole = expect_frames == 0 ? header_size
                                              : frame_end[expect_frames - 1];
      EXPECT_EQ(recovered->torn_tail_bytes, len - whole) << "len " << len;
    }
    EXPECT_EQ(recovered->quarantined_records, 0u) << "len " << len;
  }
  fs::remove_all(truncated_dir);
}

TEST_F(StreamWalTest, MidLogCorruptionQuarantinesExactly) {
  WalOptions options;
  options.dir = dir_;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  const auto feed = WriteFeed(*wal, 32, stats);
  ASSERT_TRUE(wal->Close().ok());

  std::string segment;
  for (const auto& file : fs::directory_iterator(dir_)) {
    segment = file.path().string();
  }
  std::ifstream in(segment, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one byte around the middle of the file (inside some frame).
  const size_t victim = bytes.size() / 2;
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0x5a);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto recovered = ReadWal(dir_);
  ASSERT_TRUE(recovered.ok());
  // Mid-log defect with intact later frames: the gap is exact.
  EXPECT_LT(recovered->entries.size(), feed.size());
  EXPECT_GT(recovered->quarantined_records, 0u);
  EXPECT_EQ(recovered->entries.size() + recovered->quarantined_records,
            feed.size());
  EXPECT_GT(recovered->quarantined_bytes, 0u);
  EXPECT_EQ(recovered->torn_tail_bytes, 0u);
  for (size_t i = 0; i < recovered->entries.size(); ++i) {
    EXPECT_TRUE(RecordsEqual(recovered->entries[i].View(), feed[i]));
  }
}

TEST_F(StreamWalTest, RepairTruncatesAndPreservesTheRemovedBytes) {
  WalOptions options;
  options.dir = dir_;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  WriteFeed(*wal, 32, stats);
  ASSERT_TRUE(wal->Close().ok());

  std::string segment;
  for (const auto& file : fs::directory_iterator(dir_)) {
    segment = file.path().string();
  }
  {
    std::fstream out(segment,
                     std::ios::binary | std::ios::in | std::ios::out);
    out.seekp(static_cast<std::streamoff>(fs::file_size(segment) / 2));
    out.put('\x00');
    out.put('\x00');
  }

  WalReadOptions read;
  read.repair = true;
  auto repaired = ReadWal(dir_, read);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->repairs.empty());
  EXPECT_TRUE(fs::exists(fs::path(dir_) / "quarantine"));

  // A second, read-only scan sees a clean (if shorter) log.
  auto rescanned = ReadWal(dir_);
  ASSERT_TRUE(rescanned.ok());
  EXPECT_EQ(rescanned->quarantined_records, 0u);
  EXPECT_EQ(rescanned->torn_tail_bytes, 0u);
  EXPECT_EQ(rescanned->entries.size(), repaired->entries.size());
}

TEST_F(StreamWalTest, PruneDropsOnlyFullyCoveredSegments) {
  WalOptions options;
  options.dir = dir_;
  options.segment_max_bytes = 256;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  const auto feed = WriteFeed(*wal, 120, stats);
  ASSERT_TRUE(wal->Close().ok());

  auto before = ReadWal(dir_);
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before->segments, 2u);

  auto pruned = PruneWalSegments(dir_, 60);
  ASSERT_TRUE(pruned.ok());
  EXPECT_GT(*pruned, 0u);

  auto after = ReadWal(dir_);
  ASSERT_TRUE(after.ok());
  // Everything from seq 60 must still replay (the checkpoint bound).
  ASSERT_FALSE(after->entries.empty());
  EXPECT_LE(after->entries.front().seq, 60u);
  EXPECT_EQ(after->next_seq, feed.size());
  uint64_t seq = after->entries.front().seq;
  for (WalEntry& entry : after->entries) {
    EXPECT_EQ(entry.seq, seq++);
    EXPECT_TRUE(RecordsEqual(entry.View(), feed[entry.seq]));
  }

  // Pruning everything never deletes the active (last) segment.
  auto all = PruneWalSegments(dir_, 10'000);
  ASSERT_TRUE(all.ok());
  auto still = ReadWal(dir_);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->segments, 1u);
}

TEST_F(StreamWalTest, QuarantineWalDirMovesEverything) {
  WalOptions options;
  options.dir = dir_;
  options.segment_max_bytes = 512;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  WriteFeed(*wal, 60, stats);
  ASSERT_TRUE(wal->Close().ok());

  auto moved = QuarantineWalDir(dir_);
  ASSERT_TRUE(moved.ok());
  EXPECT_GT(*moved, 0u);

  auto recovered = ReadWal(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered->entries.empty());
  EXPECT_EQ(recovered->segments, 0u);
  // The evidence survives under quarantine/.
  size_t preserved = 0;
  for (const auto& file :
       fs::directory_iterator(fs::path(dir_) / "quarantine")) {
    (void)file;
    ++preserved;
  }
  EXPECT_EQ(preserved, *moved);
}

TEST_F(StreamWalTest, ReopenContinuesInAFreshSegment) {
  WalOptions options;
  options.dir = dir_;
  auto wal = WalWriter::Open(options);
  ASSERT_TRUE(wal.ok());
  std::vector<dataspan::SpanStats> stats;
  const auto first = WriteFeed(*wal, 20, stats);
  ASSERT_TRUE(wal->Close().ok());

  auto reopened = WalWriter::Open(options, 20);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->next_seq(), 20u);
  std::vector<dataspan::SpanStats> more_stats;
  std::vector<ProvenanceRecord> second = MakeFeed(10);
  for (auto& record : second) {
    ASSERT_TRUE(reopened->Append(record).ok());
  }
  ASSERT_TRUE(reopened->Close().ok());

  auto recovered = ReadWal(dir_);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->segments, 2u);
  ASSERT_EQ(recovered->entries.size(), 30u);
  for (size_t i = 0; i < 30; ++i) EXPECT_EQ(recovered->entries[i].seq, i);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_TRUE(RecordsEqual(recovered->entries[i].View(), first[i]));
  }
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(RecordsEqual(recovered->entries[20 + i].View(), second[i]));
  }
}

}  // namespace
}  // namespace mlprov::stream
