#include "metadata/trace.h"

#include <vector>

#include <gtest/gtest.h>

#include "metadata/metadata_store.h"

namespace mlprov::metadata {
namespace {

// Builds the Figure 2(a)-style trace:
//   ExampleGen e1 -> span a1
//   ExampleGen e2 -> span a2
//   ExampleGen e3 -> span a3
//   Trainer    e4 reads {a1, a2} -> model a4
//   Trainer    e5 reads {a2, a3} -> model a5
//   Pusher     e6 reads a4 -> pushed a6
struct SampleTrace {
  MetadataStore store;
  ExecutionId gen1, gen2, gen3, trainer1, trainer2, pusher;
  ArtifactId span1, span2, span3, model1, model2, pushed;

  SampleTrace() {
    auto add_exec = [&](ExecutionType t, Timestamp start) {
      Execution e;
      e.type = t;
      e.start_time = start;
      e.end_time = start + 10;
      return store.PutExecution(e);
    };
    auto add_artifact = [&](ArtifactType t, Timestamp created) {
      Artifact a;
      a.type = t;
      a.create_time = created;
      return store.PutArtifact(a);
    };
    auto link = [&](ExecutionId e, ArtifactId a, EventKind k) {
      ASSERT_TRUE(store.PutEvent({e, a, k, 0}).ok());
    };
    gen1 = add_exec(ExecutionType::kExampleGen, 0);
    span1 = add_artifact(ArtifactType::kExamples, 10);
    link(gen1, span1, EventKind::kOutput);
    gen2 = add_exec(ExecutionType::kExampleGen, 20);
    span2 = add_artifact(ArtifactType::kExamples, 30);
    link(gen2, span2, EventKind::kOutput);
    gen3 = add_exec(ExecutionType::kExampleGen, 40);
    span3 = add_artifact(ArtifactType::kExamples, 50);
    link(gen3, span3, EventKind::kOutput);

    trainer1 = add_exec(ExecutionType::kTrainer, 60);
    link(trainer1, span1, EventKind::kInput);
    link(trainer1, span2, EventKind::kInput);
    model1 = add_artifact(ArtifactType::kModel, 70);
    link(trainer1, model1, EventKind::kOutput);

    trainer2 = add_exec(ExecutionType::kTrainer, 80);
    link(trainer2, span2, EventKind::kInput);
    link(trainer2, span3, EventKind::kInput);
    model2 = add_artifact(ArtifactType::kModel, 90);
    link(trainer2, model2, EventKind::kOutput);

    pusher = add_exec(ExecutionType::kPusher, 100);
    link(pusher, model1, EventKind::kInput);
    pushed = add_artifact(ArtifactType::kPushedModel, 110);
    link(pusher, pushed, EventKind::kOutput);
  }
};

TEST(TraceViewTest, NumNodes) {
  SampleTrace t;
  TraceView view(&t.store);
  EXPECT_EQ(view.NumNodes(), 6u + 6u);
}

TEST(TraceViewTest, AncestorExecutions) {
  SampleTrace t;
  TraceView view(&t.store);
  EXPECT_EQ(view.AncestorExecutions(t.trainer1),
            (std::vector<ExecutionId>{t.gen1, t.gen2}));
  EXPECT_EQ(view.AncestorExecutions(t.trainer2),
            (std::vector<ExecutionId>{t.gen2, t.gen3}));
  EXPECT_EQ(view.AncestorExecutions(t.pusher),
            (std::vector<ExecutionId>{t.gen1, t.gen2, t.trainer1}));
  EXPECT_TRUE(view.AncestorExecutions(t.gen1).empty());
}

TEST(TraceViewTest, AncestorArtifacts) {
  SampleTrace t;
  TraceView view(&t.store);
  EXPECT_EQ(view.AncestorArtifacts(t.trainer1),
            (std::vector<ArtifactId>{t.span1, t.span2}));
  EXPECT_EQ(view.AncestorArtifacts(t.pusher),
            (std::vector<ArtifactId>{t.span1, t.span2, t.model1}));
}

TEST(TraceViewTest, DescendantsWithStopOptions) {
  SampleTrace t;
  TraceView view(&t.store);
  EXPECT_EQ(view.DescendantExecutions(t.trainer1),
            (std::vector<ExecutionId>{t.pusher}));
  // Gen2 feeds both trainers; stopping at trainers prunes everything below.
  TraverseOptions stop_at_trainer;
  stop_at_trainer.stop_types = {ExecutionType::kTrainer};
  EXPECT_TRUE(view.DescendantExecutions(t.gen2, stop_at_trainer).empty());
  EXPECT_EQ(view.DescendantExecutions(t.gen1),
            (std::vector<ExecutionId>{t.trainer1, t.pusher}));
}

TEST(TraceViewTest, TraverseOptionsPredicateAndTypesAgree) {
  SampleTrace t;
  TraceView view(&t.store);
  TraverseOptions by_type;
  by_type.stop_types = {ExecutionType::kTrainer};
  TraverseOptions by_predicate;
  by_predicate.stop = [](const Execution& e) {
    return e.type == ExecutionType::kTrainer;
  };
  for (ExecutionId exec :
       {t.gen1, t.gen2, t.gen3, t.trainer1, t.trainer2, t.pusher}) {
    EXPECT_EQ(view.DescendantExecutions(exec, by_type),
              view.DescendantExecutions(exec, by_predicate));
  }
}

TEST(TraceViewTest, TopologicalOrderRespectsDependencies) {
  SampleTrace t;
  TraceView view(&t.store);
  const auto order = view.TopologicalOrder();
  ASSERT_EQ(order.size(), t.store.num_executions());
  auto pos = [&](ExecutionId e) {
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == e) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos(t.gen1), pos(t.trainer1));
  EXPECT_LT(pos(t.gen2), pos(t.trainer1));
  EXPECT_LT(pos(t.gen2), pos(t.trainer2));
  EXPECT_LT(pos(t.trainer1), pos(t.pusher));
}

TEST(TraceViewTest, TopologicalOrderFollowsBackwardEdges) {
  // Exec 2 consumes what exec 3 produces: an edge against id order, so
  // the order is not 1..n.
  MetadataStore store;
  auto add_exec = [&](ExecutionType type) {
    Execution e;
    e.type = type;
    return store.PutExecution(e);
  };
  const ExecutionId gen = add_exec(ExecutionType::kExampleGen);
  const ExecutionId late = add_exec(ExecutionType::kTransform);
  const ExecutionId mid = add_exec(ExecutionType::kStatisticsGen);
  const ArtifactId span = store.PutArtifact({});
  const ArtifactId stats = store.PutArtifact({});
  ASSERT_TRUE(store.PutEvent({gen, span, EventKind::kOutput, 0}).ok());
  ASSERT_TRUE(store.PutEvent({mid, stats, EventKind::kOutput, 0}).ok());
  ASSERT_TRUE(store.PutEvent({mid, span, EventKind::kInput, 0}).ok());
  ASSERT_TRUE(store.PutEvent({late, stats, EventKind::kInput, 0}).ok());
  EXPECT_EQ(TraceView(&store).TopologicalOrder(),
            (std::vector<ExecutionId>{1, 3, 2}));
}

TEST(TraceViewTest, TopologicalOrderOfCycleIsEmpty) {
  // e1 -> a1 -> e2 -> a2 -> e1: neither execution is ever ready.
  MetadataStore store;
  const ExecutionId e1 = store.PutExecution({});
  const ExecutionId e2 = store.PutExecution({});
  const ArtifactId a1 = store.PutArtifact({});
  const ArtifactId a2 = store.PutArtifact({});
  ASSERT_TRUE(store.PutEvent({e1, a1, EventKind::kOutput, 0}).ok());
  ASSERT_TRUE(store.PutEvent({e2, a1, EventKind::kInput, 0}).ok());
  ASSERT_TRUE(store.PutEvent({e2, a2, EventKind::kOutput, 0}).ok());
  ASSERT_TRUE(store.PutEvent({e1, a2, EventKind::kInput, 0}).ok());
  EXPECT_TRUE(TraceView(&store).TopologicalOrder().empty());
}

TEST(TraceViewTest, ConnectedComponents) {
  SampleTrace t;
  TraceView view(&t.store);
  // Everything is connected through span2.
  EXPECT_EQ(view.NumConnectedComponents(), 1u);
  // Add an isolated artifact: one more component.
  t.store.PutArtifact({});
  EXPECT_EQ(view.NumConnectedComponents(), 2u);
}

TEST(TraceViewTest, TimeExtentIsLifespan) {
  SampleTrace t;
  TraceView view(&t.store);
  const auto [lo, hi] = view.TimeExtent();
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 110);
}

TEST(TraceViewTest, EmptyStore) {
  MetadataStore store;
  TraceView view(&store);
  EXPECT_EQ(view.NumNodes(), 0u);
  EXPECT_EQ(view.NumConnectedComponents(), 0u);
  EXPECT_TRUE(view.TopologicalOrder().empty());
  const auto [lo, hi] = view.TimeExtent();
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 0);
}

}  // namespace
}  // namespace mlprov::metadata
