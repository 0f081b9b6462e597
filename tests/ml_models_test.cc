#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace mlprov::ml {
namespace {

/// Linearly separable blob pair.
Dataset LinearBlobs(int n_per_class, uint64_t seed, double gap = 2.0) {
  Dataset d({"x", "y"});
  common::Rng rng(seed);
  for (int i = 0; i < n_per_class; ++i) {
    d.AddRow({rng.Normal(-gap / 2, 0.5), rng.Normal(0.0, 0.5)}, 0);
    d.AddRow({rng.Normal(gap / 2, 0.5), rng.Normal(0.0, 0.5)}, 1);
  }
  return d;
}

/// XOR-style dataset that defeats linear models.
Dataset XorData(int n_per_quadrant, uint64_t seed) {
  Dataset d({"x", "y"});
  common::Rng rng(seed);
  for (int i = 0; i < n_per_quadrant; ++i) {
    for (int sx : {-1, 1}) {
      for (int sy : {-1, 1}) {
        const double x = sx * rng.Uniform(0.5, 1.5);
        const double y = sy * rng.Uniform(0.5, 1.5);
        d.AddRow({x, y}, sx * sy > 0 ? 1 : 0);
      }
    }
  }
  return d;
}

std::vector<size_t> AllRows(const Dataset& d) {
  std::vector<size_t> rows(d.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

TEST(DecisionTreeTest, FitsSimpleThreshold) {
  Dataset d({"x"});
  for (int i = 0; i < 50; ++i) {
    d.AddRow({static_cast<double>(i)}, i >= 25 ? 1 : 0);
  }
  DecisionTree::Options options;
  DecisionTree tree(options);
  common::Rng rng(1);
  tree.Fit(d, AllRows(d), nullptr, rng);
  ASSERT_TRUE(tree.IsFitted());
  const double left = 10.0, right = 40.0;
  EXPECT_LT(tree.Predict(&left), 0.5);
  EXPECT_GT(tree.Predict(&right), 0.5);
  // A single split suffices: 3 nodes, depth 1.
  EXPECT_EQ(tree.NumNodes(), 3u);
  EXPECT_EQ(tree.Depth(), 1);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  Dataset d = XorData(30, 5);
  DecisionTree::Options options;
  options.max_depth = 1;
  DecisionTree tree(options);
  common::Rng rng(2);
  tree.Fit(d, AllRows(d), nullptr, rng);
  EXPECT_LE(tree.Depth(), 1);
}

TEST(DecisionTreeTest, SolvesXor) {
  Dataset d = XorData(40, 7);
  DecisionTree::Options options;
  DecisionTree tree(options);
  common::Rng rng(3);
  tree.Fit(d, AllRows(d), nullptr, rng);
  size_t correct = 0;
  for (size_t r = 0; r < d.NumRows(); ++r) {
    const int pred = tree.Predict(d, r) >= 0.5 ? 1 : 0;
    correct += static_cast<size_t>(pred == d.Label(r));
  }
  EXPECT_GT(static_cast<double>(correct) / d.NumRows(), 0.95);
}

TEST(DecisionTreeTest, PureNodeBecomesLeaf) {
  Dataset d({"x"});
  for (int i = 0; i < 10; ++i) d.AddRow({static_cast<double>(i)}, 1);
  DecisionTree tree(DecisionTree::Options{});
  common::Rng rng(4);
  tree.Fit(d, AllRows(d), nullptr, rng);
  EXPECT_EQ(tree.NumNodes(), 1u);
  const double x = 3.0;
  EXPECT_DOUBLE_EQ(tree.Predict(&x), 1.0);
}

TEST(DecisionTreeTest, EmptyRowsYieldDefaultLeaf) {
  Dataset d({"x"});
  d.AddRow({1.0}, 1);
  DecisionTree tree(DecisionTree::Options{});
  common::Rng rng(5);
  tree.Fit(d, {}, nullptr, rng);
  const double x = 0.0;
  EXPECT_DOUBLE_EQ(tree.Predict(&x), 0.0);
}

TEST(DecisionTreeTest, RegressionModeFitsResiduals) {
  Dataset d({"x"});
  std::vector<double> targets;
  for (int i = 0; i < 100; ++i) {
    d.AddRow({static_cast<double>(i)}, 0);
    targets.push_back(i < 50 ? -1.5 : 2.5);
  }
  DecisionTree::Options options;
  options.task = DecisionTree::Task::kRegression;
  DecisionTree tree(options);
  common::Rng rng(6);
  tree.Fit(d, AllRows(d), &targets, rng);
  const double lo = 10.0, hi = 80.0;
  EXPECT_NEAR(tree.Predict(&lo), -1.5, 1e-9);
  EXPECT_NEAR(tree.Predict(&hi), 2.5, 1e-9);
}

TEST(DecisionTreeTest, FeatureImportanceIdentifiesSignal) {
  // Feature 0 is pure noise, feature 1 fully determines the label.
  Dataset d({"noise", "signal"});
  common::Rng data_rng(8);
  for (int i = 0; i < 200; ++i) {
    const int y = i % 2;
    d.AddRow({data_rng.NextDouble(), static_cast<double>(y)}, y);
  }
  DecisionTree tree(DecisionTree::Options{});
  common::Rng rng(9);
  tree.Fit(d, AllRows(d), nullptr, rng);
  const auto& imp = tree.FeatureImportance();
  EXPECT_GT(imp[1], imp[0]);
  EXPECT_GT(imp[1], 0.0);
}

TEST(DecisionTreeTest, DegenerateMidpointSplitEarnsNoImportance) {
  // The only split lies between two adjacent doubles whose midpoint
  // rounds onto the larger one, so every row would go left and the node
  // stays a leaf; its feature must not be credited with the gain.
  const double lo = std::nextafter(1.0, 2.0);  // 1 + 2^-52
  const double hi = std::nextafter(lo, 2.0);   // 1 + 2^-51
  ASSERT_EQ(0.5 * (lo + hi), hi);
  Dataset d({"x", "constant"});
  for (int i = 0; i < 4; ++i) {
    d.AddRow({lo, 5.0}, 0);
    d.AddRow({hi, 5.0}, 1);
  }
  DecisionTree tree(DecisionTree::Options{});
  common::Rng rng(11);
  tree.Fit(d, AllRows(d), nullptr, rng);
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.FeatureImportance(), (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(tree.Predict(&lo), 0.5);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  Dataset d({"x"});
  for (int i = 0; i < 20; ++i) {
    d.AddRow({static_cast<double>(i)}, i >= 19 ? 1 : 0);
  }
  DecisionTree::Options options;
  options.min_samples_leaf = 5;
  DecisionTree tree(options);
  common::Rng rng(10);
  tree.Fit(d, AllRows(d), nullptr, rng);
  // The lone positive cannot be isolated into a leaf smaller than 5.
  const double x = 19.0;
  EXPECT_LT(tree.Predict(&x), 0.5);
}

TEST(RandomForestTest, SeparatesLinearBlobs) {
  Dataset train = LinearBlobs(200, 11);
  Dataset test = LinearBlobs(100, 12);
  RandomForest::Options options;
  options.num_trees = 20;
  RandomForest forest(options);
  forest.Fit(train);
  ASSERT_TRUE(forest.IsFitted());
  EXPECT_EQ(forest.NumTrees(), 20u);
  const auto scores = forest.PredictProba(test);
  std::vector<int> labels(test.NumRows());
  for (size_t r = 0; r < test.NumRows(); ++r) labels[r] = test.Label(r);
  EXPECT_GT(BalancedAccuracy(scores, labels), 0.95);
}

TEST(RandomForestTest, SolvesXorBetterThanChance) {
  Dataset train = XorData(60, 13);
  Dataset test = XorData(30, 14);
  RandomForest::Options options;
  options.num_trees = 30;
  RandomForest forest(options);
  forest.Fit(train);
  const auto scores = forest.PredictProba(test);
  std::vector<int> labels(test.NumRows());
  for (size_t r = 0; r < test.NumRows(); ++r) labels[r] = test.Label(r);
  EXPECT_GT(BalancedAccuracy(scores, labels), 0.9);
}

TEST(RandomForestTest, HandlesImbalancedClasses) {
  // 95/5 imbalance; balanced bootstrap should still detect positives.
  Dataset d({"x"});
  common::Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    const int y = i % 20 == 0 ? 1 : 0;
    d.AddRow({rng.Normal(y ? 2.0 : -2.0, 0.7)}, y);
  }
  RandomForest::Options options;
  options.num_trees = 15;
  RandomForest forest(options);
  forest.Fit(d);
  const auto scores = forest.PredictProba(d);
  std::vector<int> labels(d.NumRows());
  for (size_t r = 0; r < d.NumRows(); ++r) labels[r] = d.Label(r);
  const Confusion c = ConfusionAt(scores, labels, 0.5);
  EXPECT_GT(c.TruePositiveRate(), 0.9);
  EXPECT_GT(c.TrueNegativeRate(), 0.9);
}

TEST(RandomForestTest, DeterministicForSeed) {
  Dataset d = LinearBlobs(50, 16);
  RandomForest::Options options;
  options.num_trees = 5;
  options.seed = 99;
  RandomForest f1(options), f2(options);
  f1.Fit(d);
  f2.Fit(d);
  const auto p1 = f1.PredictProba(d);
  const auto p2 = f2.PredictProba(d);
  for (size_t i = 0; i < p1.size(); ++i) EXPECT_DOUBLE_EQ(p1[i], p2[i]);
}

TEST(RandomForestTest, FeatureImportanceNormalized) {
  Dataset d = LinearBlobs(100, 17);
  RandomForest::Options options;
  options.num_trees = 10;
  RandomForest forest(options);
  forest.Fit(d);
  const auto imp = forest.FeatureImportance();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
  EXPECT_GT(imp[0], imp[1]);  // x carries the signal
}

/// The reference the compiled walk must reproduce bit for bit: every
/// tree's DecisionTree::Predict, summed in tree order, over the count.
double PerTreeReference(const RandomForest& forest, const double* row) {
  double total = 0.0;
  for (const DecisionTree& tree : forest.trees()) total += tree.Predict(row);
  return total / static_cast<double>(forest.NumTrees());
}

/// Rows mixing random values, values exactly on one of the forest's
/// split thresholds for that feature, +-inf and NaN.
std::vector<std::vector<double>> ProbeRows(const RandomForest& forest,
                                           size_t num_features,
                                           common::Rng& rng) {
  std::vector<std::vector<double>> thresholds(num_features);
  for (const DecisionTree& tree : forest.trees()) {
    for (const DecisionTree::Node& node : tree.nodes()) {
      if (node.feature >= 0) {
        thresholds[static_cast<size_t>(node.feature)].push_back(
            node.threshold);
      }
    }
  }
  const double specials[] = {std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  std::vector<std::vector<double>> rows(300,
                                        std::vector<double>(num_features));
  for (std::vector<double>& row : rows) {
    for (size_t f = 0; f < num_features; ++f) {
      const uint64_t kind = rng.NextUint64(8);
      if (kind >= 4 && kind < 7 && !thresholds[f].empty()) {
        row[f] = thresholds[f][rng.NextUint64(thresholds[f].size())];
      } else if (kind == 7) {
        row[f] = specials[rng.NextUint64(3)];
      } else {
        row[f] = rng.Normal(0.0, 2.0);
      }
    }
  }
  return rows;
}

/// Noisy labels over mixed continuous and few-valued features, so trees
/// grow deep and split on tied values.
Dataset NoisyData(int rows, uint64_t seed) {
  Dataset d({"a", "b", "c", "steps", "d", "e"});
  common::Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const double a = rng.Normal(0.0, 1.0);
    const double b = rng.Normal(0.0, 1.0);
    const double steps = static_cast<double>(rng.NextUint64(4));
    const double p = 1.0 / (1.0 + std::exp(-(a - b + 0.5 * steps - 0.7)));
    d.AddRow({a, b, rng.Uniform(-3.0, 3.0), steps, rng.Normal(1.0, 4.0),
              rng.NextDouble()},
             rng.Bernoulli(p) ? 1 : 0);
  }
  return d;
}

TEST(RandomForestTest, CompiledWalkEqualsPerTreeSum) {
  const Dataset train = NoisyData(500, 21);
  const size_t lanes = RandomForest::kLanes;
  common::Rng row_rng(22);
  for (const size_t num_trees : {size_t{1}, lanes, lanes + 1, size_t{60}}) {
    for (const int max_depth : {1, 14, 20}) {
      RandomForest::Options options;
      options.num_trees = static_cast<int>(num_trees);
      options.max_depth = max_depth;
      options.seed = 100 + num_trees + static_cast<uint64_t>(max_depth);
      RandomForest forest(options);
      forest.Fit(train);
      ASSERT_EQ(forest.NumTrees(), num_trees);
      int deepest = 0;
      for (const DecisionTree& tree : forest.trees()) {
        deepest = std::max(deepest, tree.Depth());
      }
      // 500 rows rarely grow a tree to depth 20, but every forest of
      // more than one tree walks deeper than the scorer's default 14.
      if (max_depth < 20) {
        EXPECT_EQ(deepest, max_depth) << num_trees << " trees";
      } else if (num_trees > 1) {
        EXPECT_GT(deepest, 14) << num_trees << " trees";
      }
      for (const auto& row :
           ProbeRows(forest, train.NumFeatures(), row_rng)) {
        EXPECT_EQ(forest.PredictProba(row.data()),
                  PerTreeReference(forest, row.data()))
            << num_trees << " trees, max_depth " << max_depth;
      }
      for (size_t r = 0; r < train.NumRows(); ++r) {
        EXPECT_EQ(forest.PredictProba(train, r),
                  PerTreeReference(forest, train.Row(r)));
      }
    }
  }
}

TEST(RandomForestTest, CompiledWalkHandlesSingleLeafTrees) {
  // Bootstraps of 4 rows from 10 with one positive are mostly pure and
  // become single leaves; the rest split once.
  Dataset d({"x", "y"});
  for (int i = 0; i < 10; ++i) {
    d.AddRow({static_cast<double>(i), static_cast<double>(i % 3)},
             i == 9 ? 1 : 0);
  }
  RandomForest::Options options;
  options.num_trees = static_cast<int>(RandomForest::kLanes) * 2 + 5;
  options.subsample = 0.4;
  options.balance_classes = false;
  RandomForest forest(options);
  forest.Fit(d);
  size_t leaves = 0, splits = 0;
  for (const DecisionTree& tree : forest.trees()) {
    (tree.NumNodes() == 1 ? leaves : splits) += 1;
  }
  ASSERT_GT(leaves, 0u);
  ASSERT_GT(splits, 0u);
  common::Rng rng(23);
  for (const auto& row : ProbeRows(forest, d.NumFeatures(), rng)) {
    EXPECT_EQ(forest.PredictProba(row.data()),
              PerTreeReference(forest, row.data()));
  }
}

TEST(LogisticRegressionTest, SeparatesLinearBlobs) {
  Dataset train = LinearBlobs(200, 18);
  Dataset test = LinearBlobs(100, 19);
  LogisticRegression lr{LogisticRegression::Options{}};
  lr.Fit(train);
  ASSERT_TRUE(lr.IsFitted());
  const auto scores = lr.PredictProba(test);
  std::vector<int> labels(test.NumRows());
  for (size_t r = 0; r < test.NumRows(); ++r) labels[r] = test.Label(r);
  EXPECT_GT(BalancedAccuracy(scores, labels), 0.95);
  // Weight on x should dominate and be positive.
  EXPECT_GT(lr.weights()[0], std::abs(lr.weights()[1]) * 3);
}

TEST(LogisticRegressionTest, FailsOnXorAsExpected) {
  Dataset d = XorData(60, 20);
  LogisticRegression lr{LogisticRegression::Options{}};
  lr.Fit(d);
  const auto scores = lr.PredictProba(d);
  std::vector<int> labels(d.NumRows());
  for (size_t r = 0; r < d.NumRows(); ++r) labels[r] = d.Label(r);
  EXPECT_LT(BalancedAccuracy(scores, labels), 0.65);
}

TEST(LogisticRegressionTest, ProbabilitiesInRange) {
  Dataset d = LinearBlobs(50, 21);
  LogisticRegression lr{LogisticRegression::Options{}};
  lr.Fit(d);
  for (double p : lr.PredictProba(d)) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(GbdtTest, SeparatesLinearBlobs) {
  Dataset train = LinearBlobs(200, 22);
  Dataset test = LinearBlobs(100, 23);
  Gbdt::Options options;
  options.num_rounds = 40;
  Gbdt model(options);
  model.Fit(train);
  ASSERT_TRUE(model.IsFitted());
  EXPECT_EQ(model.NumTrees(), 40u);
  const auto scores = model.PredictProba(test);
  std::vector<int> labels(test.NumRows());
  for (size_t r = 0; r < test.NumRows(); ++r) labels[r] = test.Label(r);
  EXPECT_GT(BalancedAccuracy(scores, labels), 0.95);
}

TEST(GbdtTest, SolvesXor) {
  Dataset train = XorData(60, 24);
  Gbdt::Options options;
  options.num_rounds = 60;
  Gbdt model(options);
  model.Fit(train);
  const auto scores = model.PredictProba(train);
  std::vector<int> labels(train.NumRows());
  for (size_t r = 0; r < train.NumRows(); ++r) labels[r] = train.Label(r);
  EXPECT_GT(BalancedAccuracy(scores, labels), 0.9);
}

TEST(GbdtTest, EmptyFitIsSafe) {
  Gbdt model{Gbdt::Options{}};
  Dataset d({"x"});
  model.Fit(d, {});
  EXPECT_EQ(model.NumTrees(), 0u);
}

}  // namespace
}  // namespace mlprov::ml
