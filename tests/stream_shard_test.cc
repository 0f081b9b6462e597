/// Router-stability and merge-determinism coverage for the sharded
/// provenance service (stream/shard_router.h): the FNV-1a routing hash
/// is pinned against goldens (stable across runs and platforms), shard
/// counts partition the pipeline space, and the merged output is
/// byte-identical (fingerprints) to single-session replay at shards ×
/// threads ∈ {1,4,8}² — on plain, fault-injected, and LRU-cached
/// corpora, over the trace, binary, and durable ingest paths.

#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoints.h"
#include "common/parallel.h"
#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "metadata/binary_serialization.h"
#include "metadata/trace_validator.h"
#include "simulator/corpus_generator.h"
#include "simulator/provenance_sink.h"
#include "stream/fingerprint.h"
#include "stream/replay.h"
#include "stream/shard_router.h"

namespace fs = std::filesystem;

namespace mlprov::stream {
namespace {

// ---------------------------------------------------------------------
// Routing invariant

TEST(ShardHashTest, GoldenValues) {
  // Wire-stability pins: these exact values are what every past and
  // future run routes with. A change here is a re-sharding event.
  EXPECT_EQ(ShardHash(0), 12161962213042174405ull);
  EXPECT_EQ(ShardHash(1), 9929646806074584996ull);
  EXPECT_EQ(ShardHash(7), 5465015992139406178ull);
  EXPECT_EQ(ShardHash(42), 18391255480883862255ull);
  EXPECT_EQ(ShardHash(123456789), 16095947281800810009ull);
  static_assert(ShardHash(42) == 18391255480883862255ull,
                "routing hash must be compile-time stable");
}

TEST(ShardHashTest, SameIdSameShardAcrossCalls) {
  for (int64_t id = 0; id < 1000; ++id) {
    for (size_t shards : {1u, 2u, 3u, 4u, 8u, 64u}) {
      const size_t first = ShardOf(id, shards);
      EXPECT_EQ(first, ShardOf(id, shards));
      EXPECT_LT(first, shards);
    }
  }
}

TEST(ShardHashTest, ShardsPartitionThePipelineSpace) {
  // Every pipeline lands on exactly one shard, every shard is somebody's
  // home (for enough pipelines), and the split is roughly balanced.
  for (size_t shards : {2u, 4u, 8u}) {
    std::vector<size_t> counts(shards, 0);
    for (int64_t id = 0; id < 4096; ++id) ++counts[ShardOf(id, shards)];
    size_t total = 0;
    for (size_t shard = 0; shard < shards; ++shard) {
      EXPECT_GT(counts[shard], 0u) << "empty shard " << shard;
      total += counts[shard];
    }
    EXPECT_EQ(total, 4096u);  // total routing: no pipeline lost or doubled
    for (size_t count : counts) {
      EXPECT_GT(count, 4096u / shards / 2);
      EXPECT_LT(count, 4096u / shards * 2);
    }
  }
}

// ---------------------------------------------------------------------
// Merge determinism

sim::CorpusConfig SmallConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 12;
  config.seed = 777;
  config.horizon_days = 45.0;
  return config;
}

sim::CorpusConfig FaultyConfig() {
  sim::CorpusConfig config = SmallConfig();
  config.seed = 778;
  auto plan = common::FaultPlan::Parse(
      "exec.trainer:transient:0.2,exec.pusher:persistent:0.1,"
      "exec.transform:transient:0.05");
  EXPECT_TRUE(plan.ok());
  config.fault_plan = *plan;
  config.max_retries = 2;
  return config;
}

sim::CorpusConfig CachedConfig() {
  sim::CorpusConfig config = SmallConfig();
  config.seed = 779;
  config.cache_policy = sim::CachePolicy::kLru;
  config.cache_capacity = 64;
  return config;
}

/// Every record a full feed of the trace emits (the feeder's Finish walk
/// covers every node, context, and event exactly once).
uint64_t FeedRecords(const sim::PipelineTrace& trace) {
  return trace.store.num_contexts() + trace.store.num_executions() +
         trace.store.num_artifacts() + trace.store.num_events();
}

uint64_t TotalFeedRecords(const sim::Corpus& corpus) {
  uint64_t total = 0;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    total += FeedRecords(trace);
  }
  return total;
}

/// Counts the records a session takes before its first failure.
class CountingSink : public sim::ProvenanceSink {
 public:
  void OnRecord(const sim::ProvenanceRecord& record) override {
    if (failed_) return;
    if (session_.Ingest(record).ok()) {
      ++ingested_;
    } else {
      failed_ = true;
    }
  }
  uint64_t ingested() const { return ingested_; }

 private:
  ProvenanceSession session_;
  uint64_t ingested_ = 0;
  bool failed_ = false;
};

/// What a slot's `records` must hold, computed without the router: 0 for
/// a quarantined trace, else the records one session takes before it
/// poisons (the whole feed of a healthy pipeline).
std::vector<uint64_t> ExpectedSlotRecords(const sim::Corpus& corpus) {
  const metadata::TraceValidator validator;
  std::vector<uint64_t> expected;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    if (validator.Validate(trace.store).NeedsQuarantine()) {
      expected.push_back(0);
      continue;
    }
    CountingSink sink;
    sim::ProvenanceFeeder feeder(&sink);
    feeder.Finish(trace);
    expected.push_back(sink.ingested());
  }
  return expected;
}

std::vector<std::string> SerializeCorpus(const sim::Corpus& corpus) {
  std::vector<std::string> blobs;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    blobs.push_back(metadata::SerializeStoreBinary(trace.store));
  }
  return blobs;
}

/// IngestBinary's input over `blobs`, which must outlive it.
std::vector<ShardedProvenanceService::BinaryPipeline> BinaryPipelines(
    const sim::Corpus& corpus, const std::vector<std::string>& blobs) {
  std::vector<ShardedProvenanceService::BinaryPipeline> pipelines;
  for (size_t i = 0; i < blobs.size(); ++i) {
    pipelines.push_back({corpus.pipelines[i].config.pipeline_id, blobs[i]});
  }
  return pipelines;
}

uint64_t FingerprintSegmented(const core::SegmentedCorpus& segmented) {
  uint64_t hash = 14695981039346656037ull;
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    hash ^= FingerprintGraphlets(sp.graphlets);
    hash *= 1099511628211ull;
    hash ^= static_cast<uint64_t>(sp.quarantined_graphlets);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Restores the global thread knob on scope exit so tests do not leak
/// their parallelism setting into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : saved_(common::GlobalThreads()) {
    common::SetGlobalThreads(threads);
  }
  ~ScopedThreads() { common::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

/// The property the whole service is built around: for every shard and
/// thread count, the merged segmentation fingerprint equals the batch
/// (single-session replay) fingerprint, the run counts every fed record,
/// and each slot counts what its own session took.
TEST(ShardMergeTest, ByteIdenticalToBatchAtEveryShardAndThreadCount) {
  for (const sim::CorpusConfig& config :
       {SmallConfig(), FaultyConfig(), CachedConfig()}) {
    const sim::Corpus corpus = sim::GenerateCorpus(config);
    const uint64_t batch =
        FingerprintSegmented(core::SegmentCorpus(corpus));
    const std::vector<uint64_t> slot_records = ExpectedSlotRecords(corpus);
    for (int threads : {1, 4, 8}) {
      ScopedThreads scoped(threads);
      for (size_t shards : {1u, 2u, 4u, 8u}) {
        ShardRouterOptions options;
        options.shards = shards;
        ShardedProvenanceService service(options);
        auto result = service.IngestCorpus(corpus);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_TRUE(result->FirstError().ok()) << result->FirstError();
        EXPECT_EQ(FingerprintSegmented(result->ToSegmentedCorpus()), batch)
            << "corpus seed " << config.seed << " shards " << shards
            << " threads " << threads;
        EXPECT_EQ(result->shed_records, 0u);
        EXPECT_EQ(result->records, TotalFeedRecords(corpus));
        ASSERT_EQ(result->pipelines.size(), slot_records.size());
        for (size_t i = 0; i < slot_records.size(); ++i) {
          EXPECT_EQ(result->pipelines[i].records, slot_records[i])
              << "corpus seed " << config.seed << " shards " << shards
              << " slot " << i;
        }
      }
    }
  }
}

TEST(ShardMergeTest, SlotsCarryRoutingMetadata) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  ShardRouterOptions options;
  options.shards = 4;
  ShardedProvenanceService service(options);
  auto result = service.IngestCorpus(corpus);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->pipelines.size(), corpus.pipelines.size());
  for (size_t i = 0; i < result->pipelines.size(); ++i) {
    const ShardPipelineResult& slot = result->pipelines[i];
    EXPECT_EQ(slot.slot, i);
    EXPECT_EQ(slot.pipeline_id, corpus.pipelines[i].config.pipeline_id);
    EXPECT_EQ(slot.shard, ShardOf(slot.pipeline_id, 4));
    EXPECT_GT(slot.records, 0u);
  }
}

/// Decisions and waste accounting merge deterministically too: the
/// sharded scoring run equals a per-pipeline single-session scoring
/// replay, decision for decision.
TEST(ShardMergeTest, ScoringDecisionsMatchSingleSessionReplay) {
  const sim::Corpus train = sim::GenerateCorpus([] {
    sim::CorpusConfig config = SmallConfig();
    config.num_pipelines = 16;
    config.seed = 900;
    return config;
  }());
  auto segmented = core::SegmentCorpus(train);
  auto dataset = core::BuildWasteDataset(train, segmented);
  ASSERT_TRUE(dataset.ok()) << dataset.status();
  auto scorer = OnlineScorer::Train(*dataset);
  ASSERT_TRUE(scorer.ok()) << scorer.status();

  const sim::Corpus eval = sim::GenerateCorpus(SmallConfig());
  SessionOptions session;
  session.scorer = &*scorer;
  session.segmenter.seal_grace_hours = 24.0;

  // Reference: one session per pipeline, sequentially.
  std::vector<ScoreDecision> reference;
  WasteAccounting reference_waste;
  for (const sim::PipelineTrace& trace : eval.pipelines) {
    ProvenanceSession single(session);
    ASSERT_TRUE(ReplayTrace(trace, single).ok());
    auto finished = single.Finish();
    ASSERT_TRUE(finished.ok()) << finished.status();
    reference.insert(reference.end(), finished->decisions.begin(),
                     finished->decisions.end());
    reference_waste.decisions += finished->waste.decisions;
    reference_waste.aborts += finished->waste.aborts;
    reference_waste.lost_pushes += finished->waste.lost_pushes;
    reference_waste.avoided_hours += finished->waste.avoided_hours;
  }

  for (int threads : {1, 4, 8}) {
    ScopedThreads scoped(threads);
    for (size_t shards : {1u, 4u, 8u}) {
      ShardRouterOptions options;
      options.shards = shards;
      options.session = session;
      ShardedProvenanceService service(options);
      auto result = service.IngestCorpus(eval);
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(FingerprintDecisions(result->MergedDecisions()),
                FingerprintDecisions(reference))
          << "shards " << shards << " threads " << threads;
      const WasteAccounting waste = result->TotalWaste();
      EXPECT_EQ(waste.decisions, reference_waste.decisions);
      EXPECT_EQ(waste.aborts, reference_waste.aborts);
      EXPECT_EQ(waste.lost_pushes, reference_waste.lost_pushes);
      EXPECT_DOUBLE_EQ(waste.avoided_hours, reference_waste.avoided_hours);
    }
  }
}

// ---------------------------------------------------------------------
// Sharded zero-copy (binary) path

TEST(ShardBinaryTest, BinaryIngestMatchesBatchAcrossShardCounts) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const std::vector<std::string> blobs = SerializeCorpus(corpus);
  const auto pipelines = BinaryPipelines(corpus, blobs);
  const uint64_t batch = FingerprintSegmented(core::SegmentCorpus(corpus));
  for (size_t shards : {1u, 4u}) {
    ShardRouterOptions options;
    options.shards = shards;
    ShardedProvenanceService service(options);
    auto result = service.IngestBinary(pipelines);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->FirstError().ok()) << result->FirstError();
    EXPECT_EQ(FingerprintSegmented(result->ToSegmentedCorpus()), batch)
        << "shards " << shards;
    // The records the shards' cursors yielded: the same count as the
    // trace path's.
    EXPECT_EQ(result->records, TotalFeedRecords(corpus));
  }
}

TEST(ShardBinaryTest, CorruptBlobFailsItsSlotOnly) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  std::vector<std::string> blobs = SerializeCorpus(corpus);
  blobs[3] = "MLPBgarbage";
  const auto pipelines = BinaryPipelines(corpus, blobs);
  ShardRouterOptions options;
  options.shards = 4;
  ShardedProvenanceService service(options);
  auto result = service.IngestBinary(pipelines);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->pipelines[3].status.ok());
  EXPECT_TRUE(result->pipelines[3].result.graphlets.empty());
  EXPECT_EQ(result->pipelines[3].records, 0u);
  // A blob that does not open yields no records.
  EXPECT_EQ(result->records,
            TotalFeedRecords(corpus) - FeedRecords(corpus.pipelines[3]));
  for (size_t i = 0; i < result->pipelines.size(); ++i) {
    if (i == 3) continue;
    EXPECT_TRUE(result->pipelines[i].status.ok()) << i;
  }
}

TEST(ShardBinaryTest, DurableBinaryIngestIsRejected) {
  ShardRouterOptions options;
  options.wal_dir = "/tmp/never_created";
  ShardedProvenanceService service(options);
  auto result = service.IngestBinary({});
  EXPECT_EQ(result.status().code(), common::StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// Durable sharded ingest

TEST(ShardDurableTest, DurableShardedRunMatchesInMemoryAndLaysOutDirs) {
  const std::string dir =
      (fs::temp_directory_path() /
       ("mlprov_shard_" +
        std::to_string(
            ::testing::UnitTest::GetInstance()->random_seed())))
          .string();
  fs::remove_all(dir);
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const uint64_t batch = FingerprintSegmented(core::SegmentCorpus(corpus));

  ShardRouterOptions options;
  options.shards = 4;
  options.wal_dir = dir;
  options.checkpoint_interval = 256;
  ShardedProvenanceService service(options);
  auto result = service.IngestCorpus(corpus);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->FirstError().ok()) << result->FirstError();
  EXPECT_EQ(FingerprintSegmented(result->ToSegmentedCorpus()), batch);

  // Per-shard durability layout: <wal_dir>/shard<k>/p<id> per pipeline,
  // under the pipeline's routed shard.
  for (const ShardPipelineResult& slot : result->pipelines) {
    const fs::path expected = fs::path(dir) /
                              ("shard" + std::to_string(slot.shard)) /
                              ('p' + std::to_string(slot.pipeline_id));
    EXPECT_TRUE(fs::exists(expected)) << expected;
  }

  // The same run again over the same wal_dir: every session recovers its
  // journaled feed, and the worker's walk acknowledges that prefix
  // instead of re-ingesting it.
  ShardedProvenanceService rerun(options);
  auto recovered = rerun.IngestCorpus(corpus);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->FirstError().ok()) << recovered->FirstError();
  EXPECT_EQ(FingerprintSegmented(recovered->ToSegmentedCorpus()), batch);
  EXPECT_EQ(recovered->records, result->records);
  ASSERT_EQ(recovered->pipelines.size(), result->pipelines.size());
  for (size_t i = 0; i < result->pipelines.size(); ++i) {
    EXPECT_EQ(recovered->pipelines[i].records, result->pipelines[i].records)
        << "slot " << i;
  }
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Backpressure

TEST(ShardBackpressureTest, TinyQueueBlocksLosslessly) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const uint64_t batch = FingerprintSegmented(core::SegmentCorpus(corpus));
  ShardRouterOptions options;
  options.shards = 2;
  // Queues count pipelines: a shard with more than two queued pipelines
  // stalls the router.
  options.queue_capacity = 2;
  ShardedProvenanceService service(options);
  auto result = service.IngestCorpus(corpus);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(FingerprintSegmented(result->ToSegmentedCorpus()), batch);
  EXPECT_EQ(result->shed_records, 0u);
  EXPECT_GT(result->backpressure_stalls, 0u);
  EXPECT_LE(result->queue_depth_peak, 2u);
}

TEST(ShardBackpressureTest, ShedPolicyAccountsExactly) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const core::SegmentedCorpus segmented = core::SegmentCorpus(corpus);
  const std::vector<std::string> blobs = SerializeCorpus(corpus);
  const auto pipelines = BinaryPipelines(corpus, blobs);
  ShardRouterOptions options;
  options.shards = 2;
  options.queue_capacity = 2;
  options.backpressure = BackpressurePolicy::kShed;
  ShardedProvenanceService service(options);
  // Traces and MLPB blobs shed alike: whole pipelines.
  for (bool binary : {false, true}) {
    auto result = binary ? service.IngestBinary(pipelines)
                         : service.IngestCorpus(corpus);
    ASSERT_TRUE(result.ok()) << result.status();
    // Whether a pipeline sheds depends on scheduling — the invariants do
    // not: every record is either fed or counted shed, shed slots are
    // whole pipelines none of whose records was fed, and surviving slots
    // match the batch result.
    EXPECT_EQ(result->records + result->shed_records,
              TotalFeedRecords(corpus))
        << "binary " << binary;
    size_t shed_slots = 0;
    for (const ShardPipelineResult& slot : result->pipelines) {
      if (slot.shed) {
        ++shed_slots;
        EXPECT_EQ(slot.records, 0u) << "shed slot " << slot.slot;
        EXPECT_TRUE(slot.result.graphlets.empty());
        continue;
      }
      EXPECT_EQ(
          FingerprintGraphlets(slot.result.graphlets),
          FingerprintGraphlets(segmented.pipelines[slot.slot].graphlets))
          << "surviving slot " << slot.slot << " binary " << binary;
    }
    EXPECT_EQ(shed_slots, result->shed_pipelines);
    if (result->shed_records > 0) {
      EXPECT_GT(shed_slots, 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Reentrancy and option validation

TEST(ShardServiceTest, ReentrantCallFallsBackToSequentialSchedule) {
  // From inside a ParallelFor body the pool runs loops inline — the
  // service must detect it and still produce identical results (a
  // bounded queue with no running consumer would deadlock instead).
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const uint64_t batch = FingerprintSegmented(core::SegmentCorpus(corpus));
  ScopedThreads scoped(4);
  std::vector<uint64_t> fingerprints(2, 0);
  common::ParallelFor(2, [&](size_t i) {
    ShardRouterOptions options;
    options.shards = 4;
    ShardedProvenanceService service(options);
    auto result = service.IngestCorpus(corpus);
    ASSERT_TRUE(result.ok()) << result.status();
    fingerprints[i] = FingerprintSegmented(result->ToSegmentedCorpus());
  });
  EXPECT_EQ(fingerprints[0], batch);
  EXPECT_EQ(fingerprints[1], batch);
}

TEST(ShardServiceTest, RejectsInvalidOptions) {
  const sim::Corpus empty;
  {
    ShardRouterOptions options;
    options.shards = 0;
    auto result = ShardedProvenanceService(options).IngestCorpus(empty);
    EXPECT_EQ(result.status().code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    ShardRouterOptions options;
    options.shards = 257;
    auto result = ShardedProvenanceService(options).IngestCorpus(empty);
    EXPECT_EQ(result.status().code(),
              common::StatusCode::kInvalidArgument);
  }
  {
    ShardRouterOptions options;
    options.queue_capacity = 1;
    auto result = ShardedProvenanceService(options).IngestCorpus(empty);
    EXPECT_EQ(result.status().code(),
              common::StatusCode::kInvalidArgument);
  }
}

TEST(ShardServiceTest, BackpressurePolicyParsesAndPrints) {
  EXPECT_STREQ(ToString(BackpressurePolicy::kBlock), "block");
  EXPECT_STREQ(ToString(BackpressurePolicy::kShed), "shed");
  auto block = ParseBackpressurePolicy("block");
  ASSERT_TRUE(block.ok());
  EXPECT_EQ(*block, BackpressurePolicy::kBlock);
  auto shed = ParseBackpressurePolicy("shed");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(*shed, BackpressurePolicy::kShed);
  EXPECT_EQ(ParseBackpressurePolicy("drop").status().code(),
            common::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mlprov::stream
