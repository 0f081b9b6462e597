#include "metadata/binary_serialization.h"

#include <cmath>
#include <cstdio>
#include <istream>
#include <streambuf>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metadata/metadata_store.h"
#include "metadata/serialization.h"
#include "simulator/pipeline_simulator.h"

namespace mlprov::metadata {
namespace {

MetadataStore MakeStore() {
  MetadataStore store;
  Artifact span;
  span.type = ArtifactType::kExamples;
  span.create_time = 123;
  span.properties["span"] = static_cast<int64_t>(7);
  span.properties["source"] = std::string("logs with spaces");
  const ArtifactId a = store.PutArtifact(span);

  Execution trainer;
  trainer.type = ExecutionType::kTrainer;
  trainer.start_time = 100;
  trainer.end_time = 200;
  trainer.succeeded = false;
  trainer.compute_cost = 3.5;
  trainer.properties["lr"] = 0.001;
  const ExecutionId e = store.PutExecution(trainer);

  Artifact model;
  model.type = ArtifactType::kModel;
  const ArtifactId m = store.PutArtifact(model);

  EXPECT_TRUE(store.PutEvent({e, a, EventKind::kInput, 100}).ok());
  EXPECT_TRUE(store.PutEvent({e, m, EventKind::kOutput, 200}).ok());

  Context ctx;
  ctx.name = "pipeline one";
  const ContextId c = store.PutContext(ctx);
  EXPECT_TRUE(store.AddToContext(c, e).ok());
  EXPECT_TRUE(store.AddArtifactToContext(c, a).ok());
  return store;
}

// A richer store: a real simulated pipeline trace.
MetadataStore SimulatedStore() {
  sim::CorpusConfig corpus_config;
  corpus_config.seed = 5;
  common::Rng rng(corpus_config.seed);
  sim::PipelineConfig config = sim::SamplePipelineConfig(corpus_config, 0, rng);
  config.lifespan_days = 10.0;
  sim::PipelineTrace trace =
      sim::SimulatePipeline(corpus_config, config, sim::CostModel());
  return std::move(trace.store);
}

TEST(BinarySerializationTest, TextBinaryTextIsByteIdentical) {
  std::vector<MetadataStore> stores;
  stores.push_back(MakeStore());
  stores.push_back(SimulatedStore());
  for (const MetadataStore& store : stores) {
    const std::string text = SerializeStore(store);
    const std::string binary = SerializeStoreBinary(store);
    ASSERT_TRUE(IsBinaryStore(binary));
    auto decoded = DeserializeStoreBinary(binary);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(SerializeStore(*decoded), text);
    // And binary -> binary is stable too.
    EXPECT_EQ(SerializeStoreBinary(*decoded), binary);
  }
}

TEST(BinarySerializationTest, BinaryIsSmallerThanText) {
  const MetadataStore store = SimulatedStore();
  const std::string text = SerializeStore(store);
  const std::string binary = SerializeStoreBinary(store);
  EXPECT_LT(binary.size(), text.size() / 2)
      << "binary=" << binary.size() << " text=" << text.size();
}

TEST(BinarySerializationTest, ExtremeValuesRoundTrip) {
  MetadataStore store;
  Artifact a;
  a.type = ArtifactType::kCustom;
  a.create_time = INT64_MIN;
  a.properties["max"] = INT64_MAX;
  a.properties["min"] = INT64_MIN;
  a.properties["nan"] = std::nan("");
  a.properties["tiny"] = 5e-324;  // denormal: bit-exactness matters
  a.properties["empty"] = std::string();
  store.PutArtifact(std::move(a));
  Execution e;
  e.start_time = INT64_MAX;
  e.end_time = INT64_MIN;
  e.compute_cost = -0.0;
  store.PutExecution(std::move(e));
  const std::string binary = SerializeStoreBinary(store);
  auto decoded = DeserializeStoreBinary(binary);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(SerializeStore(*decoded), SerializeStore(store));
}

TEST(BinarySerializationTest, EmptyStoreRoundTrips) {
  MetadataStore store;
  auto decoded = DeserializeStoreBinary(SerializeStoreBinary(store));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->num_artifacts(), 0u);
  EXPECT_EQ(decoded->num_contexts(), 0u);
}

TEST(BinarySerializationTest, RejectsBadMagicAndVersion) {
  EXPECT_FALSE(DeserializeStoreBinary("").ok());
  EXPECT_FALSE(DeserializeStoreBinary("MLPB").ok());
  EXPECT_FALSE(DeserializeStoreBinary(std::string("MLPB\x02", 5)).ok());
  EXPECT_FALSE(DeserializeStoreBinary("MLPROVSTORE v1\n").ok());
  // Lenient mode still requires a recognizable header.
  EXPECT_FALSE(DeserializeStoreBinaryLenient("garbage").ok());
  EXPECT_FALSE(IsBinaryStore("MLPROVSTORE v1\n"));
  EXPECT_FALSE(IsBinaryStore("ML"));
}

TEST(BinarySerializationTest, StrictRejectsTruncation) {
  const std::string binary = SerializeStoreBinary(MakeStore());
  for (size_t cut = 5; cut < binary.size(); cut += 3) {
    EXPECT_FALSE(DeserializeStoreBinary(binary.substr(0, cut)).ok());
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DeserializeStoreBinary(binary + "x").ok());
}

TEST(BinarySerializationTest, LenientSalvagesTruncation) {
  const MetadataStore store = SimulatedStore();
  const std::string binary = SerializeStoreBinary(store);
  // Cut in the middle: the intact leading sections survive.
  LenientStats stats;
  auto salvaged =
      DeserializeStoreBinaryLenient(binary.substr(0, binary.size() / 2),
                                    &stats);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status();
  EXPECT_FALSE(stats.clean());
  EXPECT_LE(salvaged->num_artifacts(), store.num_artifacts());
}

TEST(BinarySerializationTest, LenientCoercesInvalidEnums) {
  MetadataStore store = MakeStore();
  std::string binary = SerializeStoreBinary(store);
  // The artifact section's first type byte sits right after the 'A' tag,
  // its payload length, and the count + column length varints. Find it
  // by decoding: easier to corrupt via a rebuilt payload. Instead flip
  // every byte one at a time and require: strict = Status (never crash),
  // lenient = Status or salvage with tallies.
  size_t lenient_failures = 0;
  for (size_t i = 5; i < binary.size(); ++i) {
    std::string mutant = binary;
    mutant[i] = static_cast<char>(mutant[i] ^ 0x7F);
    (void)DeserializeStoreBinary(mutant);
    LenientStats stats;
    auto salvaged = DeserializeStoreBinaryLenient(mutant, &stats);
    if (!salvaged.ok()) ++lenient_failures;
  }
  // The lenient reader only hard-fails on header damage, which we never
  // touch here — every body mutation must salvage something.
  EXPECT_EQ(lenient_failures, 0u);
}

TEST(BinarySerializationTest, FileSaveLoadAutoDetectsFormat) {
  const MetadataStore store = MakeStore();
  const std::string text_path =
      ::testing::TempDir() + "/mlprov_bin_test.txt";
  const std::string bin_path = ::testing::TempDir() + "/mlprov_bin_test.bin";
  ASSERT_TRUE(SaveStore(store, text_path, StoreFormat::kText).ok());
  ASSERT_TRUE(SaveStore(store, bin_path, StoreFormat::kBinary).ok());

  StoreFormat format = StoreFormat::kBinary;
  auto from_text = LoadStore(text_path, &format);
  ASSERT_TRUE(from_text.ok()) << from_text.status();
  EXPECT_EQ(format, StoreFormat::kText);

  auto from_binary = LoadStore(bin_path, &format);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status();
  EXPECT_EQ(format, StoreFormat::kBinary);

  EXPECT_EQ(SerializeStore(*from_text), SerializeStore(*from_binary));
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(BinarySerializationTest, StreamingFileLoadMatchesInMemory) {
  const MetadataStore store = SimulatedStore();
  const std::string path = ::testing::TempDir() + "/mlprov_bin_stream.bin";
  ASSERT_TRUE(SaveStore(store, path, StoreFormat::kBinary).ok());
  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeStore(*loaded), SerializeStore(store));
  std::remove(path.c_str());
}

// A streambuf with the default (failing) seekoff, modeling a pipe:
// LoadStoreBinary must fall back to chunked reads instead of bounding
// section lengths via tellg/seekg.
class NonSeekableBuf : public std::streambuf {
 public:
  explicit NonSeekableBuf(const std::string& data) : data_(data) {
    char* p = data_.data();
    setg(p, p, p + data_.size());
  }

 private:
  std::string data_;
};

TEST(BinarySerializationTest, LoadsFromNonSeekableStream) {
  const MetadataStore store = SimulatedStore();
  const std::string binary = SerializeStoreBinary(store);
  NonSeekableBuf buf(binary);
  std::istream in(&buf);
  ASSERT_EQ(in.rdbuf()->pubseekoff(0, std::ios::cur, std::ios::in),
            std::streampos(-1));  // genuinely non-seekable
  auto loaded = LoadStoreBinary(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(SerializeStoreBinary(*loaded), binary);

  // A lying section length on a pipe must hit the short-read check, not
  // a 2^50-byte allocation.
  std::string hostile(binary.substr(0, 5));  // magic + version
  hostile.push_back('S');
  binwire::AppendVarint(hostile, uint64_t{1} << 50);
  NonSeekableBuf bad(hostile);
  std::istream bad_in(&bad);
  EXPECT_FALSE(LoadStoreBinary(bad_in).ok());
}

TEST(BinarySerializationTest, VarintHelpersRoundTrip) {
  using binwire::ZigZagDecode;
  using binwire::ZigZagEncode;
  for (const int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{63},
                          int64_t{-64}, INT64_MAX, INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
    std::string bytes;
    binwire::AppendSvarint(bytes, v);
    binwire::Reader in(bytes);
    int64_t back = 0;
    EXPECT_TRUE(in.S64(&back));
    EXPECT_EQ(back, v);
    EXPECT_TRUE(in.empty());
  }

  // The one reader MLPB, the WAL and checkpoints share accepts at most
  // 10 bytes, a 10th byte of at most 1, and lengths padded with 0x80
  // continuation bytes (as WAL frames write them); a failed read does
  // not advance.
  const auto read = [](std::string bytes, uint64_t* value) {
    binwire::Reader in(bytes);
    const bool ok = in.U64(value);
    EXPECT_EQ(in.remaining(), ok ? 0u : bytes.size()) << ok;
    return ok;
  };
  uint64_t value = 0;
  const std::string nine(9, '\xFF');
  EXPECT_TRUE(read(nine + '\x01', &value));
  EXPECT_EQ(value, UINT64_MAX);
  EXPECT_TRUE(read(nine + '\x00', &value));
  EXPECT_EQ(value, UINT64_MAX >> 1);
  EXPECT_FALSE(read(nine + '\x02', &value));  // a 65th bit
  EXPECT_FALSE(read(nine + '\x81', &value));  // an 11th byte follows
  EXPECT_FALSE(read(nine + std::string("\x80\x00", 2), &value));
  EXPECT_FALSE(read(nine, &value));  // truncated
  EXPECT_FALSE(read("", &value));
  // 5 and 0 padded to 4 and to 10 bytes; 11 bytes are one too many.
  EXPECT_TRUE(read(std::string("\x85\x80\x80\x00", 4), &value));
  EXPECT_EQ(value, 5u);
  EXPECT_TRUE(read(std::string(9, '\x80') + '\x00', &value));
  EXPECT_EQ(value, 0u);
  EXPECT_FALSE(read(std::string(10, '\x80') + '\x00', &value));
}

TEST(BinarySerializationTest, CursorWalksFeedOrder) {
  const MetadataStore store = MakeStore();
  const std::string binary = SerializeStoreBinary(store);
  auto cursor = BinaryStoreCursor::Open(binary);
  ASSERT_TRUE(cursor.ok()) << cursor.status();
  EXPECT_EQ(cursor->num_contexts(), 1u);
  EXPECT_EQ(cursor->num_executions(), 1u);
  EXPECT_EQ(cursor->num_artifacts(), 2u);
  EXPECT_EQ(cursor->num_events(), 2u);

  std::vector<RecordRef::Kind> kinds;
  RecordRef record;
  while (cursor->Next(&record)) {
    kinds.push_back(record.kind);
    if (record.kind == RecordRef::Kind::kContext) {
      EXPECT_EQ(record.context_name, "pipeline one");
    }
    if (record.kind == RecordRef::Kind::kArtifact && record.id == 1) {
      ASSERT_EQ(record.properties.size(), 2u);
      // Keys sorted: "source" < "span".
      EXPECT_EQ(record.properties[0].key, "source");
      EXPECT_EQ(std::get<std::string_view>(record.properties[0].value),
                "logs with spaces");
      EXPECT_EQ(record.properties[1].key, "span");
      EXPECT_EQ(std::get<int64_t>(record.properties[1].value), 7);
    }
    if (record.kind == RecordRef::Kind::kExecution) {
      EXPECT_EQ(record.execution_type, ExecutionType::kTrainer);
      EXPECT_FALSE(record.succeeded);
      EXPECT_DOUBLE_EQ(record.compute_cost, 3.5);
    }
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status();
  // Feed order: context, then per event its endpoints first.
  const std::vector<RecordRef::Kind> expected = {
      RecordRef::Kind::kContext,   RecordRef::Kind::kExecution,
      RecordRef::Kind::kArtifact,  RecordRef::Kind::kEvent,
      RecordRef::Kind::kArtifact,  RecordRef::Kind::kEvent,
  };
  EXPECT_EQ(kinds, expected);
}

TEST(BinarySerializationTest, CursorRebuildsIdenticalStore) {
  const MetadataStore store = SimulatedStore();
  const std::string binary = SerializeStoreBinary(store);
  auto cursor = BinaryStoreCursor::Open(binary);
  ASSERT_TRUE(cursor.ok()) << cursor.status();

  MetadataStore rebuilt;
  size_t records = 0;
  RecordRef record;
  while (cursor->Next(&record)) {
    ++records;
    switch (record.kind) {
      case RecordRef::Kind::kContext:
        rebuilt.PutContextBorrowed(record.context_name);
        break;
      case RecordRef::Kind::kExecution: {
        const ExecutionId id = rebuilt.PutExecutionBorrowed(
            record.execution_type, record.start_time, record.end_time,
            record.succeeded, record.compute_cost, record.properties);
        ASSERT_TRUE(rebuilt.AddToContext(1, id).ok());
        break;
      }
      case RecordRef::Kind::kArtifact: {
        const ArtifactId id = rebuilt.PutArtifactBorrowed(
            record.artifact_type, record.create_time, record.properties);
        ASSERT_TRUE(rebuilt.AddArtifactToContext(1, id).ok());
        break;
      }
      case RecordRef::Kind::kEvent:
        ASSERT_TRUE(rebuilt.PutEvent(record.event).ok());
        break;
    }
  }
  ASSERT_TRUE(cursor->status().ok()) << cursor->status();
  EXPECT_EQ(records, cursor->num_records());
  // The simulated trace has a single context whose membership is every
  // node in id order, so the feed rebuild reproduces the store exactly.
  EXPECT_EQ(SerializeStore(rebuilt), SerializeStore(store));
}

TEST(BinarySerializationTest, CursorRejectsCorruptHeader) {
  const std::string binary = SerializeStoreBinary(MakeStore());
  EXPECT_FALSE(BinaryStoreCursor::Open("").ok());
  EXPECT_FALSE(BinaryStoreCursor::Open("MLPBx").ok());
  EXPECT_FALSE(BinaryStoreCursor::Open(binary.substr(0, 7)).ok());
  EXPECT_FALSE(BinaryStoreCursor::Open(binary + "extra").ok());
}

}  // namespace
}  // namespace mlprov::metadata
