// Microbenchmarks for the from-scratch ML substrate: CART, random forest,
// logistic regression, and GBDT fit/predict throughput.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench/micro_common.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"

namespace mlprov {
namespace {

ml::Dataset MakeData(size_t rows, size_t features, uint64_t seed) {
  std::vector<std::string> names;
  names.reserve(features);
  for (size_t f = 0; f < features; ++f) {
    names.emplace_back("f");
    names.back() += std::to_string(f);
  }
  ml::Dataset data(std::move(names));
  common::Rng rng(seed);
  std::vector<double> row(features);
  for (size_t r = 0; r < rows; ++r) {
    double signal = 0.0;
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.Normal();
      if (f < 3) signal += row[f];
    }
    data.AddRow(row, rng.Bernoulli(1.0 / (1.0 + std::exp(-signal))) ? 1 : 0,
                static_cast<int64_t>(r / 50));
  }
  return data;
}

void BM_DecisionTreeFit(benchmark::State& state) {
  const ml::Dataset data =
      MakeData(static_cast<size_t>(state.range(0)), 20, 3);
  std::vector<size_t> rows(data.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  for (auto _ : state) {
    ml::DecisionTree tree(ml::DecisionTree::Options{});
    common::Rng rng(5);
    tree.Fit(data, rows, nullptr, rng);
    benchmark::DoNotOptimize(tree.NumNodes());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(1000)->Arg(5000);

void BM_RandomForestFit(benchmark::State& state) {
  const ml::Dataset data = MakeData(2000, 20, 7);
  ml::RandomForest::Options options;
  options.num_trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest forest(options);
    forest.Fit(data);
    benchmark::DoNotOptimize(forest.NumTrees());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(10)->Arg(40);

// One PredictProba per iteration, so the reported time is ns per row. The
// forest has the online scorer's shape (the Options defaults: 60 trees,
// depth 14), and the rows cycle through a held-out set: scoring one row
// over and over would let the branch predictor learn its paths.
void BM_RandomForestPredict(benchmark::State& state) {
  const ml::Dataset train = MakeData(2000, 20, 9);
  const ml::Dataset held_out = MakeData(1000, 20, 10);
  ml::RandomForest forest{ml::RandomForest::Options()};
  forest.Fit(train);
  size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.PredictProba(held_out, row));
    row = row + 1 == held_out.NumRows() ? 0 : row + 1;
  }
}
BENCHMARK(BM_RandomForestPredict);

void BM_LogisticRegressionFit(benchmark::State& state) {
  const ml::Dataset data = MakeData(2000, 20, 11);
  for (auto _ : state) {
    ml::LogisticRegression lr{ml::LogisticRegression::Options{}};
    lr.Fit(data);
    benchmark::DoNotOptimize(lr.bias());
  }
}
BENCHMARK(BM_LogisticRegressionFit);

void BM_GbdtFit(benchmark::State& state) {
  const ml::Dataset data = MakeData(2000, 20, 13);
  ml::Gbdt::Options options;
  options.num_rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::Gbdt model(options);
    model.Fit(data);
    benchmark::DoNotOptimize(model.NumTrees());
  }
}
BENCHMARK(BM_GbdtFit)->Arg(20);

}  // namespace
}  // namespace mlprov

MLPROV_MICROBENCH_MAIN();
