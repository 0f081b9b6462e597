#include "ml/random_forest.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mlprov::ml {

void RandomForest::Fit(const Dataset& data) {
  std::vector<size_t> rows(data.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Fit(data, rows);
}

void RandomForest::Fit(const Dataset& data,
                       const std::vector<size_t>& rows) {
  trees_.clear();
  nodes_.clear();
  roots_.clear();
  depth_ = 0;
  num_features_ = data.NumFeatures();
  if (rows.empty() || num_features_ == 0) return;

  common::Rng rng(options_.seed);
  size_t max_features = options_.max_features;
  if (max_features == 0) {
    max_features = static_cast<size_t>(
        std::max(1.0, std::floor(std::sqrt(
                          static_cast<double>(num_features_)))));
  }
  DecisionTree::Options tree_options;
  tree_options.task = DecisionTree::Task::kClassification;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.max_features = max_features;

  // Class-partitioned indices for balanced bootstraps.
  std::vector<size_t> positives, negatives;
  for (size_t r : rows) {
    (data.Label(r) ? positives : negatives).push_back(r);
  }
  const bool balanced = options_.balance_classes && !positives.empty() &&
                        !negatives.empty();
  const auto sample_size = static_cast<size_t>(
      std::max(1.0, options_.subsample * static_cast<double>(rows.size())));

  trees_.reserve(static_cast<size_t>(options_.num_trees));
  std::vector<size_t> bootstrap;
  bootstrap.reserve(sample_size);
  for (int t = 0; t < options_.num_trees; ++t) {
    bootstrap.clear();
    if (balanced) {
      // Balanced bootstrap: equal expected mass per class.
      for (size_t i = 0; i < sample_size; ++i) {
        const auto& side = (i % 2 == 0) ? positives : negatives;
        bootstrap.push_back(
            side[static_cast<size_t>(rng.NextUint64(side.size()))]);
      }
    } else {
      for (size_t i = 0; i < sample_size; ++i) {
        bootstrap.push_back(
            rows[static_cast<size_t>(rng.NextUint64(rows.size()))]);
      }
    }
    DecisionTree tree(tree_options);
    common::Rng tree_rng = rng.Fork();
    tree.Fit(data, bootstrap, /*targets=*/nullptr, tree_rng);
    trees_.push_back(std::move(tree));
  }
  Compile();
}

void RandomForest::Compile() {
  for (const DecisionTree& tree : trees_) {
    const auto root = static_cast<int32_t>(nodes_.size());
    roots_.push_back(root);
    depth_ = std::max(depth_, tree.Depth());
    for (const DecisionTree::Node& split : tree.nodes()) {
      const auto self = static_cast<int32_t>(nodes_.size());
      Node node;
      node.threshold = split.threshold;
      node.value = split.value;
      if (split.feature >= 0) {
        node.feature = split.feature;
        node.child[0] = root + split.left;
        node.child[1] = root + split.right;
      } else {
        node.child[0] = node.child[1] = self;
      }
      nodes_.push_back(node);
    }
  }
  if (roots_.empty()) return;
  const size_t blocks = (roots_.size() + kLanes - 1) / kLanes;
  roots_.resize(blocks * kLanes, static_cast<int32_t>(nodes_.size() - 1));
}

void RandomForest::MapFeatures(const std::vector<size_t>& columns) {
  assert(columns.size() == num_features_);
  for (Node& node : nodes_) {
    node.feature = static_cast<int32_t>(
        columns[static_cast<size_t>(node.feature)]);
  }
}

double RandomForest::PredictProba(const double* features) const {
  assert(!trees_.empty());
  const Node* nodes = nodes_.data();
  double total = 0.0;
  for (size_t first = 0; first < roots_.size(); first += kLanes) {
    int32_t at[kLanes];
    std::copy_n(roots_.data() + first, kLanes, at);
    for (int step = 0; step < depth_; ++step) {
      for (size_t lane = 0; lane < kLanes; ++lane) {
        const Node& node = nodes[at[lane]];
        at[lane] = node.child[!(features[node.feature] <= node.threshold)];
      }
    }
    const size_t live = std::min(kLanes, trees_.size() - first);
    for (size_t lane = 0; lane < live; ++lane) total += nodes[at[lane]].value;
  }
  return total / static_cast<double>(trees_.size());
}

double RandomForest::PredictProba(const Dataset& data, size_t row) const {
  return PredictProba(data.Row(row));
}

std::vector<double> RandomForest::PredictProba(const Dataset& data) const {
  std::vector<double> out(data.NumRows());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    out[r] = PredictProba(data, r);
  }
  return out;
}

std::vector<double> RandomForest::FeatureImportance() const {
  std::vector<double> total(num_features_, 0.0);
  for (const DecisionTree& tree : trees_) {
    const auto& imp = tree.FeatureImportance();
    for (size_t f = 0; f < total.size() && f < imp.size(); ++f) {
      total[f] += imp[f];
    }
  }
  double sum = 0.0;
  for (double x : total) sum += x;
  if (sum > 0.0) {
    for (double& x : total) x /= sum;
  }
  return total;
}

}  // namespace mlprov::ml
