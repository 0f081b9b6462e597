/// Session-level property tests for the incremental provenance index:
/// the TraceQuery surface must be byte-identical to TraceView recompute
/// at EVERY ingest prefix of a simulated feed — on plain, fault-injected,
/// and cached corpora, at any thread count, under sharded ingestion,
/// after crash recovery (DurableSession::Open), and after reseals — and
/// the graphlet-membership queries must match batch segmentation. Stores
/// with backward and cyclic edges segment like batch with the index on
/// or off.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoints.h"
#include "common/parallel.h"
#include "core/graphlet_analysis.h"
#include "core/provenance_index.h"
#include "core/segmentation.h"
#include "metadata/trace.h"
#include "simulator/corpus_generator.h"
#include "stream/fingerprint.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/shard_router.h"
#include "stream/supervisor.h"

namespace mlprov::stream {
namespace {

namespace fs = std::filesystem;
using metadata::ArtifactId;
using metadata::ArtifactType;
using metadata::EventKind;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::TraceView;

sim::CorpusConfig SmallConfig() {
  sim::CorpusConfig config;
  config.num_pipelines = 3;
  config.seed = 4242;
  config.horizon_days = 40.0;
  return config;
}

sim::CorpusConfig FaultyConfig() {
  sim::CorpusConfig config = SmallConfig();
  config.seed = 4243;
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
  config.seed = 4244;
  config.cache_policy = sim::CachePolicy::kLru;
  config.cache_capacity = 64;
  return config;
}

class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) : saved_(common::GlobalThreads()) {
    common::SetGlobalThreads(threads);
  }
  ~ScopedThreads() { common::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

/// Full sweep: every execution's indexed closures against the TraceView
/// recompute over the session's replicated store.
void ExpectQueriesMatchTraceView(const ProvenanceSession& session) {
  const metadata::MetadataStore& store = session.store();
  ASSERT_TRUE(session.index().InSync());
  TraceView view(&store);
  core::TraceQuery query = session.Query();
  const auto n = static_cast<ExecutionId>(store.num_executions());
  for (ExecutionId exec = 1; exec <= n; ++exec) {
    auto anc = query.AncestorsOf(exec);
    ASSERT_TRUE(anc.ok()) << anc.status();
    EXPECT_EQ(*anc, view.AncestorExecutions(exec)) << "exec " << exec;
    auto desc = query.DescendantsOf(exec);
    ASSERT_TRUE(desc.ok()) << desc.status();
    EXPECT_EQ(*desc, view.DescendantExecutions(exec)) << "exec " << exec;
    auto arts = query.AncestorArtifactsOf(exec);
    ASSERT_TRUE(arts.ok()) << arts.status();
    EXPECT_EQ(*arts, view.AncestorArtifacts(exec)) << "exec " << exec;
  }
}

/// One rotating spot check, cheap enough to run after every record.
void SpotCheckPrefix(const ProvenanceSession& session, uint64_t step) {
  const metadata::MetadataStore& store = session.store();
  const size_t n = store.num_executions();
  if (n == 0) return;
  ASSERT_TRUE(session.index().InSync());
  TraceView view(&store);
  core::TraceQuery query = session.Query();
  const auto exec = static_cast<ExecutionId>(step % n + 1);
  auto anc = query.AncestorsOf(exec);
  ASSERT_TRUE(anc.ok()) << anc.status();
  EXPECT_EQ(*anc, view.AncestorExecutions(exec))
      << "prefix " << step << " exec " << exec;
  auto desc = query.DescendantsOf(exec);
  ASSERT_TRUE(desc.ok()) << desc.status();
  EXPECT_EQ(*desc, view.DescendantExecutions(exec))
      << "prefix " << step << " exec " << exec;
}

/// GraphletsTouchingSpan for every artifact against batch segmentation
/// of the session's store as it stands, finished or not.
void ExpectMembershipMatchesBatch(const ProvenanceSession& session,
                                  uint64_t step) {
  const std::vector<core::Graphlet> batch =
      core::SegmentTrace(session.store());
  core::TraceQuery query = session.Query();
  const auto num_artifacts =
      static_cast<ArtifactId>(session.store().num_artifacts());
  for (ArtifactId a = 1; a <= num_artifacts; ++a) {
    std::vector<ExecutionId> want;
    for (const core::Graphlet& g : batch) {
      if (std::binary_search(g.artifacts.begin(), g.artifacts.end(), a)) {
        want.push_back(g.trainer);
      }
    }
    std::sort(want.begin(), want.end());
    auto got = query.GraphletsTouchingSpan(a);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, want) << "prefix " << step << " artifact " << a;
  }
}

TEST(StreamIndexQueryTest, EveryIngestPrefixMatchesTraceViewRecompute) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  // Graces from "seal at once" (every late event finds a sealed cell) to
  // the default: membership queries are exact at every prefix either way.
  for (double grace_hours : {0.0, 12.0, 48.0}) {
    for (const sim::PipelineTrace& trace : corpus.pipelines) {
      SessionOptions options;
      options.segmenter.seal_grace_hours = grace_hours;
      ProvenanceSession session(options);
      TraceRecordSource source(trace);
      const sim::ProvenanceRecord* record = nullptr;
      for (uint64_t i = 0; (record = source.Get(i)) != nullptr; ++i) {
        ASSERT_TRUE(session.Ingest(*record).ok());
        // The index keeps pace record by record: spot-check a rotating
        // execution at every prefix, and sweep everything periodically.
        SpotCheckPrefix(session, i);
        if (i % 64 == 0) {
          ExpectQueriesMatchTraceView(session);
          ExpectMembershipMatchesBatch(session, i);
        }
      }
      ExpectQueriesMatchTraceView(session);
      ExpectMembershipMatchesBatch(session, source.size());
      auto result = session.Finish();
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }
}

/// Replays whole traces (fault-injected and cache-hit corpora included)
/// and checks the full sweep plus the graphlet-membership queries
/// against batch segmentation.
void ExpectCorpusQueriesMatch(const sim::Corpus& corpus) {
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    ProvenanceSession session;
    ASSERT_TRUE(ReplayTrace(trace, session).ok());
    ExpectQueriesMatchTraceView(session);
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FingerprintGraphlets(result->graphlets),
              FingerprintGraphlets(core::SegmentTrace(trace.store)));

    // GraphletsTouchingSpan == batch membership, artifact by artifact.
    core::TraceQuery query = session.Query();
    const auto num_artifacts =
        static_cast<ArtifactId>(session.store().num_artifacts());
    for (ArtifactId a = 1; a <= num_artifacts; ++a) {
      std::vector<ExecutionId> want;
      for (const core::Graphlet& g : result->graphlets) {
        for (ArtifactId member : g.artifacts) {
          if (member == a) {
            want.push_back(g.trainer);
            break;
          }
        }
      }
      std::sort(want.begin(), want.end());
      auto got = query.GraphletsTouchingSpan(a);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, want) << "artifact " << a;
    }
  }
}

TEST(StreamIndexQueryTest, FaultInjectedCorpusMatches) {
  ExpectCorpusQueriesMatch(sim::GenerateCorpus(FaultyConfig()));
}

TEST(StreamIndexQueryTest, CachedCorpusMatches) {
  ExpectCorpusQueriesMatch(sim::GenerateCorpus(CachedConfig()));
}

TEST(StreamIndexQueryTest, QueryResultsIdenticalAcrossThreadCounts) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  auto fingerprints = [&](int threads) {
    ScopedThreads scoped(threads);
    std::vector<uint64_t> out(corpus.pipelines.size());
    common::ParallelFor(corpus.pipelines.size(), [&](size_t i) {
      ProvenanceSession session;
      (void)ReplayTrace(corpus.pipelines[i], session);
      core::TraceQuery query = session.Query();
      uint64_t hash = 14695981039346656037ull;
      auto fold = [&hash](const std::vector<ExecutionId>& ids) {
        for (ExecutionId id : ids) {
          hash ^= static_cast<uint64_t>(id);
          hash *= 1099511628211ull;
        }
        hash ^= ids.size() + 1;
        hash *= 1099511628211ull;
      };
      const auto n =
          static_cast<ExecutionId>(session.store().num_executions());
      for (ExecutionId exec = 1; exec <= n; ++exec) {
        auto anc = query.AncestorsOf(exec);
        auto desc = query.DescendantsOf(exec);
        if (anc.ok()) fold(*anc);
        if (desc.ok()) fold(*desc);
      }
      out[i] = hash;
    });
    return out;
  };
  const std::vector<uint64_t> t1 = fingerprints(1);
  EXPECT_EQ(t1, fingerprints(4));
  EXPECT_EQ(t1, fingerprints(8));
}

TEST(StreamIndexQueryTest, ShardedIngestionKeepsIndexedResultsIdentical) {
  // The sharded service's per-pipeline sessions keep an index beside
  // their segmenter; the merged output must stay byte-identical to the
  // batch fingerprint at every shard and thread count.
  for (const sim::CorpusConfig& config : {SmallConfig(), FaultyConfig()}) {
    const sim::Corpus corpus = sim::GenerateCorpus(config);
    const core::SegmentedCorpus batch = core::SegmentCorpus(corpus);
    for (int threads : {1, 4}) {
      ScopedThreads scoped(threads);
      for (size_t shards : {1u, 4u, 8u}) {
        ShardRouterOptions options;
        options.shards = shards;
        ShardedProvenanceService service(options);
        auto result = service.IngestCorpus(corpus);
        ASSERT_TRUE(result.ok()) << result.status();
        EXPECT_TRUE(result->FirstError().ok()) << result->FirstError();
        const core::SegmentedCorpus merged = result->ToSegmentedCorpus();
        ASSERT_EQ(merged.pipelines.size(), batch.pipelines.size());
        for (size_t i = 0; i < batch.pipelines.size(); ++i) {
          EXPECT_EQ(FingerprintGraphlets(merged.pipelines[i].graphlets),
                    FingerprintGraphlets(batch.pipelines[i].graphlets))
              << "pipeline " << i << " shards " << shards << " threads "
              << threads;
        }
      }
    }
  }
}

TEST(StreamIndexQueryTest, RecoveredSessionRebuildsTheIndex) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const std::string dir =
      (fs::temp_directory_path() / "mlprov_index_recovery").string();
  for (size_t t = 0; t < corpus.pipelines.size(); ++t) {
    fs::remove_all(dir);
    TraceRecordSource source(corpus.pipelines[t]);
    const uint64_t n = source.size();

    // Uninterrupted reference.
    uint64_t expected = 0;
    {
      ProvenanceSession session;
      const sim::ProvenanceRecord* record = nullptr;
      for (uint64_t i = 0; (record = source.Get(i)) != nullptr; ++i) {
        ASSERT_TRUE(session.Ingest(*record).ok());
      }
      auto result = session.Finish();
      ASSERT_TRUE(result.ok()) << result.status();
      expected = FingerprintSessionResult(*result);
    }

    DurableOptions options;
    options.wal.dir = dir;
    options.wal.sync = WalSyncPolicy::kInterval;
    options.wal.sync_interval_records = 8;
    options.checkpoint_interval = 16;

    auto first = DurableSession::Open(options);
    ASSERT_TRUE(first.ok()) << first.status();
    while (first->records() < n / 2) {
      const sim::ProvenanceRecord* record = source.Get(first->records());
      ASSERT_NE(record, nullptr);
      ASSERT_TRUE(first->Ingest(*record).ok());
    }
    ASSERT_TRUE(first->SimulateCrash(first->unsynced_wal_bytes() / 2).ok());

    auto second = DurableSession::Open(options);
    ASSERT_TRUE(second.ok()) << second.status();
    // The restored session's index caught up with the restored store
    // before any extraction ran; queries work immediately.
    ExpectQueriesMatchTraceView(second->session());

    const sim::ProvenanceRecord* record = nullptr;
    while ((record = source.Get(second->records())) != nullptr) {
      ASSERT_TRUE(second->Ingest(*record).ok());
    }
    ExpectQueriesMatchTraceView(second->session());
    auto result = second->Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FingerprintSessionResult(*result), expected) << "trace " << t;
    fs::remove_all(dir);
  }
}

TEST(StreamIndexQueryTest, ResealsKeepIndexedExtractionIdentical) {
  // A tight seal grace forces cells to seal early and go stale on late
  // post-trainer events; stale cells re-extract at Finish and must still
  // finish byte-identical to batch segmentation, with the index's
  // queries matching TraceView throughout. Nothing reads the graphlets
  // before Finish, so each cell is extracted at most twice: at its first
  // seal and at Finish.
  const sim::Corpus corpus = sim::GenerateCorpus(FaultyConfig());
  size_t total_reseals = 0;
  for (const sim::PipelineTrace& trace : corpus.pipelines) {
    SessionOptions options;
    options.segmenter.seal_grace_hours = 12.0;
    ProvenanceSession session(options);
    ASSERT_TRUE(ReplayTrace(trace, session).ok());
    total_reseals += session.stats().segmenter.reseals;
    ExpectQueriesMatchTraceView(session);
    auto result = session.Finish();
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(FingerprintGraphlets(result->graphlets),
              FingerprintGraphlets(core::SegmentTrace(trace.store)));
    ExpectQueriesMatchTraceView(session);
    const StreamingSegmenter::Stats& stats = session.segmenter().stats();
    EXPECT_LE(stats.extractions, 2 * stats.cells);
    EXPECT_LE(stats.sealed, stats.cells);
  }
  EXPECT_GT(total_reseals, 0u) << "grace too lax to exercise reseals";
}

TEST(StreamIndexQueryTest, DisabledIndexDegradesGracefully) {
  const sim::Corpus corpus = sim::GenerateCorpus(SmallConfig());
  const sim::PipelineTrace& trace = corpus.pipelines[0];
  SessionOptions options;
  options.enable_index = false;
  ProvenanceSession session(options);
  ASSERT_TRUE(ReplayTrace(trace, session).ok());
  // Label queries refuse while the index is behind; segmentation never
  // reads the index and stays byte-identical.
  EXPECT_EQ(session.Query().AncestorsOf(1).status().code(),
            common::StatusCode::kFailedPrecondition);
  auto result = session.Finish();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(FingerprintGraphlets(result->graphlets),
            FingerprintGraphlets(core::SegmentTrace(trace.store)));
  // An on-demand CatchUp turns the query surface on after the fact.
  session.index().CatchUp();
  ExpectQueriesMatchTraceView(session);
}

/// Builds a store whose event put order is its feed order (ReplayStore
/// re-derives the same record sequence).
struct StoreBuilder {
  metadata::MetadataStore store;

  ExecutionId Exec(ExecutionType type, metadata::Timestamp start,
                   metadata::Timestamp end) {
    metadata::Execution e;
    e.type = type;
    e.start_time = start;
    e.end_time = end;
    return store.PutExecution(e);
  }
  ArtifactId Artifact(ArtifactType type, metadata::Timestamp created) {
    metadata::Artifact a;
    a.type = type;
    a.create_time = created;
    return store.PutArtifact(a);
  }
  void Link(ExecutionId e, ArtifactId a, EventKind kind,
            metadata::Timestamp time) {
    ASSERT_TRUE(store.PutEvent({e, a, kind, time}).ok());
  }
};

/// Trainer 2 consumes a span that the higher-id execution 3 produces
/// (edge 3 -> 2), next to a statistics run over that span, a pusher,
/// and a warm-started second trainer with an evaluator.
metadata::MetadataStore BackwardEdgeStore() {
  StoreBuilder b;
  const ExecutionId gen1 = b.Exec(ExecutionType::kExampleGen, 0, 10);
  const ArtifactId span1 = b.Artifact(ArtifactType::kExamples, 10);
  b.Link(gen1, span1, EventKind::kOutput, 10);
  const ExecutionId trainer = b.Exec(ExecutionType::kTrainer, 100, 200);
  const ExecutionId gen2 = b.Exec(ExecutionType::kExampleGen, 20, 30);
  const ArtifactId span2 = b.Artifact(ArtifactType::kExamples, 30);
  b.Link(gen2, span2, EventKind::kOutput, 30);
  b.Link(trainer, span1, EventKind::kInput, 100);
  b.Link(trainer, span2, EventKind::kInput, 100);
  const ArtifactId model = b.Artifact(ArtifactType::kModel, 200);
  b.Link(trainer, model, EventKind::kOutput, 200);
  const ExecutionId stats = b.Exec(ExecutionType::kStatisticsGen, 40, 50);
  b.Link(stats, span2, EventKind::kInput, 40);
  const ArtifactId stats_out =
      b.Artifact(ArtifactType::kExampleStatistics, 50);
  b.Link(stats, stats_out, EventKind::kOutput, 50);
  const ExecutionId pusher = b.Exec(ExecutionType::kPusher, 210, 220);
  b.Link(pusher, model, EventKind::kInput, 210);
  const ArtifactId pushed = b.Artifact(ArtifactType::kPushedModel, 220);
  b.Link(pusher, pushed, EventKind::kOutput, 220);
  const ExecutionId warm = b.Exec(ExecutionType::kTrainer, 300, 400);
  b.Link(warm, span2, EventKind::kInput, 300);
  b.Link(warm, model, EventKind::kInput, 300);
  const ArtifactId warm_model = b.Artifact(ArtifactType::kModel, 400);
  b.Link(warm, warm_model, EventKind::kOutput, 400);
  const ExecutionId eval = b.Exec(ExecutionType::kEvaluator, 410, 420);
  b.Link(eval, warm_model, EventKind::kInput, 410);
  const ArtifactId evaluation =
      b.Artifact(ArtifactType::kModelEvaluation, 420);
  b.Link(eval, evaluation, EventKind::kOutput, 420);
  return std::move(b.store);
}

/// Two cycles through one trainer: trainer -> model -> Transform ->
/// artifact -> trainer, and the same through an Evaluator. Unlike
/// Transform, an Evaluator is no descendant stop: the BFS meets it first
/// as an ancestor and never expands it as a descendant, so the
/// ModelValidator behind it stays outside the graphlet, while a label
/// closure over the cycle would reach it. A pusher and a second trainer
/// sit downstream.
metadata::MetadataStore TrainerCycleStore() {
  StoreBuilder b;
  const ExecutionId gen = b.Exec(ExecutionType::kExampleGen, 0, 10);
  const ArtifactId span = b.Artifact(ArtifactType::kExamples, 10);
  b.Link(gen, span, EventKind::kOutput, 10);
  const ExecutionId trainer = b.Exec(ExecutionType::kTrainer, 100, 200);
  b.Link(trainer, span, EventKind::kInput, 100);
  const ArtifactId model = b.Artifact(ArtifactType::kModel, 200);
  b.Link(trainer, model, EventKind::kOutput, 200);
  const ExecutionId transform = b.Exec(ExecutionType::kTransform, 210, 220);
  b.Link(transform, model, EventKind::kInput, 210);
  const ArtifactId graph = b.Artifact(ArtifactType::kTransformGraph, 220);
  b.Link(transform, graph, EventKind::kOutput, 220);
  b.Link(trainer, graph, EventKind::kInput, 230);  // closes the cycle
  const ExecutionId eval = b.Exec(ExecutionType::kEvaluator, 210, 220);
  b.Link(eval, model, EventKind::kInput, 210);
  const ArtifactId evaluation =
      b.Artifact(ArtifactType::kModelEvaluation, 220);
  b.Link(eval, evaluation, EventKind::kOutput, 220);
  b.Link(trainer, evaluation, EventKind::kInput, 230);  // second cycle
  const ExecutionId validator =
      b.Exec(ExecutionType::kModelValidator, 230, 240);
  b.Link(validator, evaluation, EventKind::kInput, 230);
  const ArtifactId blessing = b.Artifact(ArtifactType::kModelBlessing, 240);
  b.Link(validator, blessing, EventKind::kOutput, 240);
  const ExecutionId pusher = b.Exec(ExecutionType::kPusher, 240, 250);
  b.Link(pusher, model, EventKind::kInput, 240);
  const ArtifactId pushed = b.Artifact(ArtifactType::kPushedModel, 250);
  b.Link(pusher, pushed, EventKind::kOutput, 250);
  const ExecutionId next = b.Exec(ExecutionType::kTrainer, 300, 400);
  b.Link(next, graph, EventKind::kInput, 300);
  b.Link(next, span, EventKind::kInput, 300);
  const ArtifactId next_model = b.Artifact(ArtifactType::kModel, 400);
  b.Link(next, next_model, EventKind::kOutput, 400);
  return std::move(b.store);
}

TEST(StreamIndexQueryTest, BackwardAndCyclicStoresSegmentLikeBatch) {
  // Sessions segment by BFS whether or not they keep an index, so on
  // stores whose edges run against id order or close a cycle, Finish()
  // must equal batch segmentation and the index must not change how
  // many extractions the segmenter runs — at every seal grace, reseals
  // included.
  size_t reseals = 0;
  for (const metadata::MetadataStore& store :
       {BackwardEdgeStore(), TrainerCycleStore()}) {
    const std::vector<core::Graphlet> batch = core::SegmentTrace(store);
    ASSERT_EQ(batch.size(), 2u);
    for (double grace_hours : {0.0, 1.0, 48.0}) {
      size_t extractions[2] = {0, 0};
      for (bool enable_index : {false, true}) {
        SessionOptions options;
        options.enable_index = enable_index;
        options.segmenter.seal_grace_hours = grace_hours;
        ProvenanceSession session(options);
        ASSERT_TRUE(ReplayStore(store, session).ok());
        if (enable_index) ExpectQueriesMatchTraceView(session);
        auto result = session.Finish();
        ASSERT_TRUE(result.ok()) << result.status();
        ASSERT_EQ(result->graphlets.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(result->graphlets[i].executions, batch[i].executions)
              << "grace " << grace_hours << " graphlet " << i;
          EXPECT_EQ(result->graphlets[i].artifacts, batch[i].artifacts)
              << "grace " << grace_hours << " graphlet " << i;
        }
        EXPECT_EQ(FingerprintGraphlets(result->graphlets),
                  FingerprintGraphlets(batch));
        extractions[enable_index ? 1 : 0] =
            session.stats().segmenter.extractions;
        reseals += session.stats().segmenter.reseals;
      }
      EXPECT_EQ(extractions[1], extractions[0]) << "grace " << grace_hours;
    }
  }
  EXPECT_GT(reseals, 0u) << "no seal grace exercised a reseal";
}

}  // namespace
}  // namespace mlprov::stream
