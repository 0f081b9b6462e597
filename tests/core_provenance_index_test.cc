/// Property tests for the incremental provenance index and the
/// TraceQuery engine: every label-decoded query must be byte-identical
/// to the corresponding TraceView recompute — on clean stores, random
/// DAGs, non-monotone feeds and cycles, after both incremental feeding
/// and batch CatchUp, at every feed prefix. The random DAGs also hold
/// the BFS segmentation to its Datalog reference.

#include "core/provenance_index.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/segmentation.h"
#include "metadata/metadata_store.h"
#include "metadata/trace.h"

namespace mlprov::core {
namespace {

using metadata::ArtifactId;
using metadata::ArtifactType;
using metadata::EventKind;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::MetadataStore;
using metadata::TraceView;
using metadata::TraverseOptions;

/// A store builder that feeds a live index in lockstep with every
/// insert — the session's ingestion discipline, without the session.
struct IndexedStore {
  MetadataStore store;
  ProvenanceIndex index;

  IndexedStore() : index(&store) {}

  ExecutionId AddExec(ExecutionType type, metadata::Timestamp start,
                      metadata::Timestamp end) {
    metadata::Execution e;
    e.type = type;
    e.start_time = start;
    e.end_time = end;
    const ExecutionId id = store.PutExecution(e);
    index.OnExecution(store.executions().back());
    return id;
  }

  ArtifactId AddArtifact(ArtifactType type, metadata::Timestamp created) {
    metadata::Artifact a;
    a.type = type;
    a.create_time = created;
    const ArtifactId id = store.PutArtifact(a);
    index.OnArtifact(store.artifacts().back());
    return id;
  }

  void Link(ExecutionId e, ArtifactId a, EventKind k,
            metadata::Timestamp t = 0) {
    ASSERT_TRUE(store.PutEvent({e, a, k, t}).ok());
    index.OnEvent(store.events().back());
  }
};

/// The Figure 2(a)-style sample trace from metadata_trace_test.
void BuildSampleTrace(IndexedStore& s) {
  const ExecutionId gen1 = s.AddExec(ExecutionType::kExampleGen, 0, 10);
  const ArtifactId span1 = s.AddArtifact(ArtifactType::kExamples, 10);
  s.Link(gen1, span1, EventKind::kOutput, 10);
  const ExecutionId gen2 = s.AddExec(ExecutionType::kExampleGen, 20, 30);
  const ArtifactId span2 = s.AddArtifact(ArtifactType::kExamples, 30);
  s.Link(gen2, span2, EventKind::kOutput, 30);
  const ExecutionId gen3 = s.AddExec(ExecutionType::kExampleGen, 40, 50);
  const ArtifactId span3 = s.AddArtifact(ArtifactType::kExamples, 50);
  s.Link(gen3, span3, EventKind::kOutput, 50);
  const ExecutionId trainer1 = s.AddExec(ExecutionType::kTrainer, 60, 70);
  s.Link(trainer1, span1, EventKind::kInput, 60);
  s.Link(trainer1, span2, EventKind::kInput, 60);
  const ArtifactId model1 = s.AddArtifact(ArtifactType::kModel, 70);
  s.Link(trainer1, model1, EventKind::kOutput, 70);
  const ExecutionId trainer2 = s.AddExec(ExecutionType::kTrainer, 80, 90);
  s.Link(trainer2, span2, EventKind::kInput, 80);
  s.Link(trainer2, span3, EventKind::kInput, 80);
  const ArtifactId model2 = s.AddArtifact(ArtifactType::kModel, 90);
  s.Link(trainer2, model2, EventKind::kOutput, 90);
  const ExecutionId pusher = s.AddExec(ExecutionType::kPusher, 100, 110);
  s.Link(pusher, model1, EventKind::kInput, 100);
  const ArtifactId pushed = s.AddArtifact(ArtifactType::kPushedModel, 110);
  s.Link(pusher, pushed, EventKind::kOutput, 110);
}

/// Asserts every index query equals its TraceView recompute, for every
/// execution of the store.
void ExpectIndexMatchesTraceView(const MetadataStore& store,
                                 const ProvenanceIndex& index) {
  ASSERT_TRUE(index.InSync());
  TraceView view(&store);
  const auto n = static_cast<ExecutionId>(store.num_executions());
  for (ExecutionId exec = 1; exec <= n; ++exec) {
    EXPECT_EQ(index.Ancestors(exec), view.AncestorExecutions(exec))
        << "exec " << exec;
    EXPECT_EQ(index.AncestorArtifacts(exec), view.AncestorArtifacts(exec))
        << "exec " << exec;
    EXPECT_EQ(index.Descendants(exec), view.DescendantExecutions(exec))
        << "exec " << exec;
  }
}

TEST(ProvenanceIndexTest, IncrementalFeedMatchesTraceView) {
  IndexedStore s;
  BuildSampleTrace(s);
  ExpectIndexMatchesTraceView(s.store, s.index);
  EXPECT_GT(s.index.label_bytes(), 0u);
}

TEST(ProvenanceIndexTest, CatchUpOnFinishedStoreMatchesIncrementalFeed) {
  IndexedStore s;
  BuildSampleTrace(s);
  // A fresh index catching up on the finished store must agree with the
  // incrementally fed one on every query.
  ProvenanceIndex batch(&s.store);
  EXPECT_FALSE(batch.InSync());
  batch.CatchUp();
  ASSERT_TRUE(batch.InSync());
  const auto n = static_cast<ExecutionId>(s.store.num_executions());
  for (ExecutionId exec = 1; exec <= n; ++exec) {
    EXPECT_EQ(batch.Ancestors(exec), s.index.Ancestors(exec));
    EXPECT_EQ(batch.Descendants(exec), s.index.Descendants(exec));
  }
  // CatchUp is idempotent.
  batch.CatchUp();
  ExpectIndexMatchesTraceView(s.store, batch);
}

TEST(ProvenanceIndexTest, EveryPrefixOfTheFeedStaysConsistent) {
  // Rebuild the sample trace from scratch repeatedly, stopping the
  // *checks* at every feed prefix: after each record the live index
  // must match both TraceView and a fresh CatchUp index on the store
  // as it stands.
  IndexedStore s;
  size_t checked_prefixes = 0;
  // Interleave checks with construction by checking after every insert.
  auto check = [&] {
    ExpectIndexMatchesTraceView(s.store, s.index);
    ProvenanceIndex fresh(&s.store);
    fresh.CatchUp();
    const auto n = static_cast<ExecutionId>(s.store.num_executions());
    for (ExecutionId exec = 1; exec <= n; ++exec) {
      EXPECT_EQ(fresh.Ancestors(exec), s.index.Ancestors(exec));
    }
    ++checked_prefixes;
  };
  const ExecutionId gen1 = s.AddExec(ExecutionType::kExampleGen, 0, 10);
  check();
  const ArtifactId span1 = s.AddArtifact(ArtifactType::kExamples, 10);
  check();
  s.Link(gen1, span1, EventKind::kOutput, 10);
  check();
  const ExecutionId gen2 = s.AddExec(ExecutionType::kExampleGen, 20, 30);
  const ArtifactId span2 = s.AddArtifact(ArtifactType::kExamples, 30);
  s.Link(gen2, span2, EventKind::kOutput, 30);
  check();
  const ExecutionId trainer1 = s.AddExec(ExecutionType::kTrainer, 60, 70);
  check();
  s.Link(trainer1, span1, EventKind::kInput, 60);
  check();
  s.Link(trainer1, span2, EventKind::kInput, 60);
  const ArtifactId model1 = s.AddArtifact(ArtifactType::kModel, 70);
  check();
  s.Link(trainer1, model1, EventKind::kOutput, 70);
  check();
  const ExecutionId pusher = s.AddExec(ExecutionType::kPusher, 100, 110);
  s.Link(pusher, model1, EventKind::kInput, 100);
  check();
  EXPECT_GE(checked_prefixes, 9u);
}

TEST(ProvenanceIndexTest, RandomDagsMatchTraceViewAndSegmentation) {
  std::mt19937 rng(20260807);
  for (int round = 0; round < 12; ++round) {
    IndexedStore s;
    const int n = 12 + static_cast<int>(rng() % 28);
    std::vector<ExecutionId> execs;
    std::vector<ArtifactId> outputs_of;  // parallel: one output each
    for (int i = 0; i < n; ++i) {
      const ExecutionType type = static_cast<ExecutionType>(
          rng() % static_cast<uint32_t>(metadata::kNumExecutionTypes));
      const auto start = static_cast<metadata::Timestamp>(i * 100);
      const ExecutionId e = s.AddExec(type, start, start + 50);
      // Consume a random subset of earlier outputs (edges stay
      // monotone: producers always have lower ids). Data-analysis
      // executions read a single artifact, as in real traces: the
      // Datalog reference's rule (b) chases through analysis *inputs*
      // while the fast extractor chases only outputs, so multi-input
      // analysis nodes — which no pipeline produces — would diverge.
      const bool analysis = type == ExecutionType::kStatisticsGen ||
                            type == ExecutionType::kSchemaGen ||
                            type == ExecutionType::kExampleValidator;
      size_t inputs = 0;
      for (size_t j = 0; j < execs.size(); ++j) {
        if (analysis && inputs >= 1) break;
        if (rng() % 4 == 0) {
          s.Link(e, outputs_of[j], EventKind::kInput, start);
          ++inputs;
        }
      }
      const ArtifactType atype = static_cast<ArtifactType>(
          rng() % static_cast<uint32_t>(metadata::kNumArtifactTypes));
      const ArtifactId a = s.AddArtifact(atype, start + 50);
      s.Link(e, a, EventKind::kOutput, start + 50);
      execs.push_back(e);
      outputs_of.push_back(a);
    }
    ExpectIndexMatchesTraceView(s.store, s.index);

    // BFS segmentation must equal the Datalog reference.
    const std::vector<Graphlet> fast = SegmentTrace(s.store);
    const std::vector<Graphlet> datalog = SegmentTraceDatalog(s.store);
    ASSERT_EQ(fast.size(), datalog.size());
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].trainer, datalog[i].trainer);
      EXPECT_EQ(fast[i].executions, datalog[i].executions);
      EXPECT_EQ(fast[i].artifacts, datalog[i].artifacts);
    }
  }
}

TEST(ProvenanceIndexTest, NonMonotoneEdgesStayCorrect) {
  // Exec 2 consumes an artifact produced later by exec 3: a perfectly
  // valid store whose edge 3->2 runs backwards in id space. Closure
  // queries must still match TraceView.
  IndexedStore s;
  const ExecutionId gen = s.AddExec(ExecutionType::kExampleGen, 0, 10);
  const ExecutionId late = s.AddExec(ExecutionType::kTransform, 40, 50);
  const ExecutionId mid = s.AddExec(ExecutionType::kStatisticsGen, 20, 30);
  const ArtifactId span = s.AddArtifact(ArtifactType::kExamples, 10);
  s.Link(gen, span, EventKind::kOutput, 10);
  const ArtifactId stats = s.AddArtifact(ArtifactType::kExampleStatistics, 30);
  s.Link(mid, stats, EventKind::kOutput, 30);
  s.Link(mid, span, EventKind::kInput, 20);
  s.Link(late, stats, EventKind::kInput, 40);  // edge 3 -> 2: backwards
  ExpectIndexMatchesTraceView(s.store, s.index);
}

TEST(ProvenanceIndexTest, CyclicStoreAncestorsStillMatchTraceView) {
  // A corrupt cyclic store: e1 -> a1 -> e2 -> a2 -> e1. Labels reach a
  // fixpoint that includes each node in its own closure; decoding drops
  // the self bit, matching the BFS exactly.
  IndexedStore s;
  const ExecutionId e1 = s.AddExec(ExecutionType::kTransform, 0, 10);
  const ExecutionId e2 = s.AddExec(ExecutionType::kTransform, 20, 30);
  const ArtifactId a1 = s.AddArtifact(ArtifactType::kExamples, 10);
  const ArtifactId a2 = s.AddArtifact(ArtifactType::kExamples, 30);
  s.Link(e1, a1, EventKind::kOutput, 10);
  s.Link(e2, a1, EventKind::kInput, 20);
  s.Link(e2, a2, EventKind::kOutput, 30);
  s.Link(e1, a2, EventKind::kInput, 0);  // closes the cycle
  TraceView view(&s.store);
  EXPECT_EQ(s.index.Ancestors(e1), view.AncestorExecutions(e1));
  EXPECT_EQ(s.index.Ancestors(e2), view.AncestorExecutions(e2));
  EXPECT_EQ(s.index.Descendants(e1), view.DescendantExecutions(e1));
  EXPECT_EQ(s.index.AncestorArtifacts(e1), view.AncestorArtifacts(e1));
  EXPECT_FALSE(s.index.IsAncestor(e1, e1));
  EXPECT_TRUE(s.index.IsAncestor(e2, e1));
  EXPECT_TRUE(s.index.IsAncestor(e1, e2));
}

TEST(ProvenanceIndexTest, CorruptStoreMatchesTraceView) {
  // Events with dangling ids never enter the store's adjacency, and a
  // kind outside the enum enters it as an output edge; fed live or
  // caught up in one call, the index must mirror exactly that.
  IndexedStore s;
  const ExecutionId gen = s.AddExec(ExecutionType::kExampleGen, 0, 10);
  const ExecutionId trainer = s.AddExec(ExecutionType::kTrainer, 100, 50);
  const ArtifactId span = s.AddArtifact(ArtifactType::kExamples, 10);
  for (const metadata::Event& event :
       {metadata::Event{7, span, EventKind::kInput, 0},
        metadata::Event{gen, 9, EventKind::kOutput, 0},
        metadata::Event{gen, span, static_cast<EventKind>(9), 5},
        metadata::Event{trainer, span, EventKind::kInput, 100}}) {
    s.store.PutEventUnchecked(event);
    s.index.OnEvent(s.store.events().back());
  }
  ExpectIndexMatchesTraceView(s.store, s.index);
  EXPECT_EQ(s.index.Ancestors(trainer), std::vector<ExecutionId>{gen});
  ProvenanceIndex batch(&s.store);
  batch.CatchUp();
  ExpectIndexMatchesTraceView(s.store, batch);
}

// ---------------------------------------------------------------------
// TraceQuery surface

TEST(TraceQueryTest, AncestorsAndDescendantsMatchTraceView) {
  IndexedStore s;
  BuildSampleTrace(s);
  TraceQuery query(&s.store, &s.index);
  TraceView view(&s.store);
  const auto n = static_cast<ExecutionId>(s.store.num_executions());
  for (ExecutionId exec = 1; exec <= n; ++exec) {
    auto anc = query.AncestorsOf(exec);
    ASSERT_TRUE(anc.ok()) << anc.status();
    EXPECT_EQ(*anc, view.AncestorExecutions(exec));
    auto arts = query.AncestorArtifactsOf(exec);
    ASSERT_TRUE(arts.ok()) << arts.status();
    EXPECT_EQ(*arts, view.AncestorArtifacts(exec));
    auto desc = query.DescendantsOf(exec);
    ASSERT_TRUE(desc.ok()) << desc.status();
    EXPECT_EQ(*desc, view.DescendantExecutions(exec));
  }
}

TEST(TraceQueryTest, DescendantsHonorStopOptionsOnEveryPath) {
  IndexedStore s;
  BuildSampleTrace(s);
  TraceQuery query(&s.store, &s.index);
  TraceView view(&s.store);
  // Stop-free queries decode labels; any stop type or predicate walks
  // the BFS. Every path must equal TraceView.
  TraverseOptions seg_stops;
  seg_stops.stop_types = {ExecutionType::kTransform, ExecutionType::kTrainer};
  TraverseOptions other_stops;
  other_stops.stop_types = {ExecutionType::kPusher};
  TraverseOptions predicate;
  predicate.stop = [](const metadata::Execution& e) {
    return e.type == ExecutionType::kTrainer;
  };
  const auto n = static_cast<ExecutionId>(s.store.num_executions());
  for (ExecutionId exec = 1; exec <= n; ++exec) {
    for (const TraverseOptions* options :
         {&seg_stops, &other_stops, &predicate}) {
      auto got = query.DescendantsOf(exec, *options);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, view.DescendantExecutions(exec, *options))
          << "exec " << exec;
    }
  }
}

TEST(TraceQueryTest, LineageComposesProducersAndTheirClosures) {
  IndexedStore s;
  BuildSampleTrace(s);
  TraceQuery query(&s.store, &s.index);
  TraceView view(&s.store);
  const auto num_artifacts =
      static_cast<ArtifactId>(s.store.num_artifacts());
  for (ArtifactId a = 1; a <= num_artifacts; ++a) {
    auto lineage = query.LineageOf(a);
    ASSERT_TRUE(lineage.ok()) << lineage.status();
    EXPECT_EQ(lineage->producers, s.store.ProducersOf(a));
    // Oracle: producers plus the union of their TraceView closures.
    std::vector<char> exec_in(s.store.num_executions() + 1, 0);
    std::vector<char> artifact_in(s.store.num_artifacts() + 1, 0);
    artifact_in[static_cast<size_t>(a)] = 1;
    for (ExecutionId p : lineage->producers) {
      exec_in[static_cast<size_t>(p)] = 1;
      for (ExecutionId u : view.AncestorExecutions(p)) {
        exec_in[static_cast<size_t>(u)] = 1;
      }
      for (ArtifactId in : view.AncestorArtifacts(p)) {
        artifact_in[static_cast<size_t>(in)] = 1;
      }
    }
    std::vector<ExecutionId> want_execs;
    for (size_t id = 1; id < exec_in.size(); ++id) {
      if (exec_in[id]) want_execs.push_back(static_cast<ExecutionId>(id));
    }
    std::vector<ArtifactId> want_artifacts;
    for (size_t id = 1; id < artifact_in.size(); ++id) {
      if (artifact_in[id]) {
        want_artifacts.push_back(static_cast<ArtifactId>(id));
      }
    }
    EXPECT_EQ(lineage->executions, want_execs) << "artifact " << a;
    EXPECT_EQ(lineage->artifacts, want_artifacts) << "artifact " << a;
  }
}

TEST(TraceQueryTest, TimeWindowSliceIsHalfOpenOverlap) {
  IndexedStore s;
  BuildSampleTrace(s);
  TraceQuery query(&s.store, &s.index);
  auto oracle = [&](metadata::Timestamp from, metadata::Timestamp to) {
    std::vector<ExecutionId> out;
    for (const metadata::Execution& e : s.store.executions()) {
      if (e.start_time < to && e.end_time >= from) out.push_back(e.id);
    }
    return out;
  };
  for (metadata::Timestamp from : {0, 10, 35, 60, 200}) {
    for (metadata::Timestamp span : {0, 1, 25, 100}) {
      auto got = query.TimeWindowSlice({from, from + span});
      ASSERT_TRUE(got.ok()) << got.status();
      if (span == 0) {
        EXPECT_TRUE(got->empty()) << "empty window must match nothing";
      } else {
        EXPECT_EQ(*got, oracle(from, from + span))
            << "window [" << from << "," << from + span << ")";
      }
    }
  }
  auto inverted = query.TimeWindowSlice({50, 10});
  EXPECT_EQ(inverted.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(TraceQueryTest, ErrorSurface) {
  IndexedStore s;
  BuildSampleTrace(s);
  TraceQuery query(&s.store, &s.index);
  EXPECT_EQ(query.AncestorsOf(0).status().code(),
            common::StatusCode::kNotFound);
  EXPECT_EQ(query.AncestorsOf(999).status().code(),
            common::StatusCode::kNotFound);
  EXPECT_EQ(query.LineageOf(-1).status().code(),
            common::StatusCode::kNotFound);
  // No membership provider attached: graphlet queries must say so.
  EXPECT_EQ(query.GraphletsTouchingSpan(1).status().code(),
            common::StatusCode::kFailedPrecondition);

  // An index that has not caught up with its store refuses to decode.
  ProvenanceIndex stale(&s.store);
  TraceQuery stale_query(&s.store, &stale);
  EXPECT_EQ(stale_query.AncestorsOf(1).status().code(),
            common::StatusCode::kFailedPrecondition);
  stale.CatchUp();
  EXPECT_TRUE(stale_query.AncestorsOf(1).ok());
}

}  // namespace
}  // namespace mlprov::core
