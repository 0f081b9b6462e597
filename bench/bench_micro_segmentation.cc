// Microbenchmarks for the provenance substrate: metadata-store writes,
// trace traversal, and the two graphlet-segmentation implementations —
// the optimized BFS path vs the Appendix A datalog reference (the
// ablation called out in DESIGN.md).
#include <benchmark/benchmark.h>

#include "bench/micro_common.h"
#include "core/segmentation.h"
#include "metadata/serialization.h"
#include "metadata/trace.h"
#include "simulator/pipeline_simulator.h"

namespace mlprov {
namespace {

sim::PipelineTrace MakeTrace(double days, double rate) {
  sim::CorpusConfig corpus;
  common::Rng rng(11);
  sim::PipelineConfig config = sim::SamplePipelineConfig(corpus, 0, rng);
  config.lifespan_days = days;
  config.triggers_per_day = rate;
  config.warm_start = false;
  return sim::SimulatePipeline(corpus, config, sim::CostModel());
}

void BM_StorePutEventChain(benchmark::State& state) {
  for (auto _ : state) {
    metadata::MetadataStore store;
    for (int i = 0; i < 1000; ++i) {
      const auto e = store.PutExecution({});
      const auto a = store.PutArtifact({});
      benchmark::DoNotOptimize(
          store.PutEvent({e, a, metadata::EventKind::kOutput, 0}));
    }
  }
}
BENCHMARK(BM_StorePutEventChain);

void BM_TraceTopologicalOrder(benchmark::State& state) {
  // Arg: lifespan in days. The longer trace shows how the sort scales
  // with the execution count.
  const sim::PipelineTrace trace =
      MakeTrace(static_cast<double>(state.range(0)), 4);
  metadata::TraceView view(&trace.store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(view.TopologicalOrder());
  }
  state.counters["executions"] =
      static_cast<double>(trace.store.num_executions());
}
BENCHMARK(BM_TraceTopologicalOrder)->Arg(20)->Arg(160);

void BM_SegmentTraceFast(benchmark::State& state) {
  const sim::PipelineTrace trace =
      MakeTrace(static_cast<double>(state.range(0)), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SegmentTrace(trace.store));
  }
  state.counters["graphlets"] = static_cast<double>(
      core::SegmentTrace(trace.store).size());
}
BENCHMARK(BM_SegmentTraceFast)->Arg(10)->Arg(40);

void BM_SegmentTraceDatalog(benchmark::State& state) {
  // The datalog reference re-derives the fixpoint per trainer; keep the
  // trace small so the benchmark stays responsive.
  const sim::PipelineTrace trace = MakeTrace(4, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::SegmentTraceDatalog(trace.store));
  }
}
BENCHMARK(BM_SegmentTraceDatalog);

void BM_SerializeStore(benchmark::State& state) {
  const sim::PipelineTrace trace = MakeTrace(20, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(metadata::SerializeStore(trace.store));
  }
}
BENCHMARK(BM_SerializeStore);

void BM_DeserializeStore(benchmark::State& state) {
  const sim::PipelineTrace trace = MakeTrace(20, 4);
  const std::string text = metadata::SerializeStore(trace.store);
  for (auto _ : state) {
    auto result = metadata::DeserializeStore(text);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DeserializeStore);

}  // namespace
}  // namespace mlprov

MLPROV_MICROBENCH_MAIN();
