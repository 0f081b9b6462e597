// Microbenchmarks for the similarity substrate: exact EMD vs the 1-D
// closed form, LSH hashing, span sketching, span-pair similarity (EMD vs
// positional), the Hungarian matcher, and the graphlet featurizer that
// the online scorer runs per decision.
#include <benchmark/benchmark.h>

#include <optional>

#include "bench/micro_common.h"
#include "common/rng.h"
#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "dataspan/span_stats.h"
#include "similarity/emd.h"
#include "similarity/feature_similarity.h"
#include "similarity/span_similarity.h"
#include "simulator/corpus_generator.h"

namespace mlprov {
namespace {

std::vector<double> RandomDistribution(common::Rng& rng, size_t n) {
  std::vector<double> d(n);
  for (double& x : d) x = rng.NextDouble();
  return d;
}

void BM_Emd1D(benchmark::State& state) {
  common::Rng rng(1);
  const auto p = RandomDistribution(rng, 10);
  const auto q = RandomDistribution(rng, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::Emd1D(p, q));
  }
}
BENCHMARK(BM_Emd1D);

void BM_EmdExact(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  common::Rng rng(2);
  const std::vector<double> supply(n, 1.0);
  const std::vector<double> demand(n, 1.0);
  std::vector<double> cost(n * n);
  for (double& c : cost) c = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::EarthMoversDistance(
        supply, demand,
        [&](size_t i, size_t j) { return cost[i * n + j]; }));
  }
}
BENCHMARK(BM_EmdExact)->Arg(8)->Arg(32)->Arg(64);

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  common::Rng rng(3);
  std::vector<double> weight(n * n);
  for (double& w : weight) w = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(similarity::MaxBipartiteMatchWeight(
        n, n, [&](size_t i, size_t j) { return weight[i * n + j]; }));
  }
}
BENCHMARK(BM_Hungarian)->Arg(8)->Arg(32)->Arg(64);

void BM_LshHash(benchmark::State& state) {
  similarity::S2JsdLsh lsh(similarity::S2JsdLsh::Options{});
  common::Rng rng(4);
  const auto d = RandomDistribution(rng, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh.Hash(d));
  }
}
BENCHMARK(BM_LshHash);

dataspan::SpanStats MakeSpan(int features, uint64_t seed) {
  dataspan::SchemaConfig config;
  config.num_features = features;
  dataspan::SpanStatsGenerator gen(config, common::Rng(seed));
  return gen.NextSpan();
}

void BM_SpanPairEmd(benchmark::State& state) {
  const auto a = MakeSpan(static_cast<int>(state.range(0)), 5);
  const auto b = MakeSpan(static_cast<int>(state.range(0)), 6);
  similarity::SpanSimilarityCalculator calc(
      similarity::FeatureSimilarityOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.SpanPairSimilarity(a, b));
  }
}
BENCHMARK(BM_SpanPairEmd)->Arg(16)->Arg(48);

void BM_SpanPairPositionalCached(benchmark::State& state) {
  const auto a = MakeSpan(static_cast<int>(state.range(0)), 5);
  const auto b = MakeSpan(static_cast<int>(state.range(0)), 6);
  similarity::FeatureSimilarityOptions options;
  options.soft_hash = true;
  options.lsh.num_hashes = 16;
  similarity::SpanSimilarityCalculator calc(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(calc.PositionalSimilarityCached(1, a, 2, b));
    state.PauseTiming();
    calc.ClearCache();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_SpanPairPositionalCached)->Arg(16)->Arg(48);

// One feature's share of a span sketch: its distribution, LSH buckets and
// signature, in the featurizer's similarity configuration. Each iteration
// hashes the next feature of a span with state.range(0) features, so the
// time is per feature.
void BM_SpanSketch(benchmark::State& state) {
  const auto span = MakeSpan(static_cast<int>(state.range(0)), 5);
  const similarity::FeatureSimilarityOptions options =
      core::FeatureOptions::CoarseSimilarity().feature_options;
  const similarity::FeatureSimilarity fs(options);
  std::vector<double> scratch(static_cast<size_t>(options.lsh.dim));
  std::vector<int64_t> buckets(static_cast<size_t>(options.lsh.num_hashes));
  size_t i = 0;
  for (auto _ : state) {
    fs.Buckets(span.features[i], scratch.data(), buckets.data());
    benchmark::DoNotOptimize(similarity::S2JsdLsh::Signature(
        buckets.data(), options.lsh.num_hashes));
    benchmark::ClobberMemory();
    if (++i == span.features.size()) i = 0;
  }
}
BENCHMARK(BM_SpanSketch)->Arg(16)->Arg(48);

// The featurizer's work per scored decision: Row then Advance for each
// graphlet of one calibrated pipeline, in segmentation order. A fresh
// featurizer starts each pass, so span sketches and the pair cache fill
// as they do in a live session. Time is per graphlet.
void BM_FeaturizerRow(benchmark::State& state) {
  sim::CorpusConfig config;
  config.num_pipelines = 16;
  config.seed = 900;
  config.horizon_days = 45.0;
  const sim::Corpus corpus = sim::GenerateCorpus(config);
  const core::SegmentedCorpus segmented = core::SegmentCorpus(corpus);
  const core::SegmentedPipeline* pipeline = &segmented.pipelines.front();
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    if (sp.graphlets.size() > pipeline->graphlets.size()) pipeline = &sp;
  }
  const sim::PipelineTrace& trace = corpus.pipelines[pipeline->pipeline_index];
  const std::vector<core::Graphlet>& graphlets = pipeline->graphlets;
  std::optional<core::GraphletFeaturizer> featurizer;
  featurizer.emplace(&trace.store, &trace.span_stats);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(featurizer->Row(graphlets[i]));
    featurizer->Advance(graphlets[i]);
    if (++i == graphlets.size()) {
      state.PauseTiming();
      featurizer.emplace(&trace.store, &trace.span_stats);
      i = 0;
      state.ResumeTiming();
    }
  }
  state.SetLabel(std::to_string(graphlets.size()) + " graphlets");
}
BENCHMARK(BM_FeaturizerRow)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace mlprov

MLPROV_MICROBENCH_MAIN();
