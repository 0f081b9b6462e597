#include "ml/decision_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mlprov::ml {

namespace {

/// For binary 0/1 targets, minimizing the weighted Gini impurity is
/// equivalent to minimizing the sum of squared errors (both reduce to
/// n*p*(1-p) up to a constant factor), so classification and regression
/// share one split criterion: maximize sum_child (sum_y)^2 / n_child.
struct SplitResult {
  int feature = -1;
  double threshold = 0.0;
  double gain = 0.0;
  size_t left_count = 0;
};

}  // namespace

void DecisionTree::Fit(const Dataset& data, const std::vector<size_t>& rows,
                       const std::vector<double>* targets,
                       common::Rng& rng) {
  nodes_.clear();
  importance_.assign(data.NumFeatures(), 0.0);
  if (rows.empty()) {
    Node leaf;
    leaf.value = 0.0;
    nodes_.push_back(leaf);
    return;
  }
  std::vector<size_t> work = rows;
  Build(data, targets, work, 0, work.size(), 0, rng);
}

int32_t DecisionTree::Build(const Dataset& data,
                            const std::vector<double>* targets,
                            std::vector<size_t>& rows, size_t begin,
                            size_t end, int depth, common::Rng& rng) {
  const size_t n = end - begin;
  auto target_of = [&](size_t row) {
    return targets ? (*targets)[row] : static_cast<double>(data.Label(row));
  };
  double sum = 0.0;
  for (size_t i = begin; i < end; ++i) sum += target_of(rows[i]);
  const double mean = sum / static_cast<double>(n);

  const auto make_leaf = [&]() {
    Node leaf;
    leaf.value = mean;
    leaf.depth = depth;
    nodes_.push_back(leaf);
    return static_cast<int32_t>(nodes_.size() - 1);
  };

  if (depth >= options_.max_depth || n < options_.min_samples_split) {
    return make_leaf();
  }
  // Pure node (all targets equal)?
  bool pure = true;
  for (size_t i = begin; i < end && pure; ++i) {
    pure = target_of(rows[i]) == target_of(rows[begin]);
  }
  if (pure) return make_leaf();

  // Candidate features: all, or a uniform sample without replacement.
  const size_t num_features = data.NumFeatures();
  std::vector<size_t> candidates(num_features);
  for (size_t f = 0; f < num_features; ++f) candidates[f] = f;
  size_t num_candidates = num_features;
  if (options_.max_features > 0 && options_.max_features < num_features) {
    for (size_t i = 0; i < options_.max_features; ++i) {
      const size_t j =
          i + static_cast<size_t>(rng.NextUint64(num_features - i));
      std::swap(candidates[i], candidates[j]);
    }
    num_candidates = options_.max_features;
  }

  const double parent_score = sum * sum / static_cast<double>(n);
  SplitResult best;
  std::vector<std::pair<double, double>> values;  // (feature value, target)
  values.reserve(n);
  for (size_t ci = 0; ci < num_candidates; ++ci) {
    const size_t f = candidates[ci];
    values.clear();
    for (size_t i = begin; i < end; ++i) {
      values.emplace_back(data.Feature(rows[i], f), target_of(rows[i]));
    }
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) continue;  // constant
    double left_sum = 0.0;
    for (size_t k = 0; k + 1 < n; ++k) {
      left_sum += values[k].second;
      // Only split between distinct feature values.
      if (values[k].first == values[k + 1].first) continue;
      const size_t left_n = k + 1;
      const size_t right_n = n - left_n;
      if (left_n < options_.min_samples_leaf ||
          right_n < options_.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double score =
          left_sum * left_sum / static_cast<double>(left_n) +
          right_sum * right_sum / static_cast<double>(right_n);
      const double gain = score - parent_score;
      if (gain > best.gain + 1e-12) {
        best.gain = gain;
        best.feature = static_cast<int>(f);
        best.threshold = 0.5 * (values[k].first + values[k + 1].first);
        best.left_count = left_n;
      }
    }
  }
  if (best.feature < 0) return make_leaf();

  // Partition rows in place: left side = feature <= threshold.
  const auto mid_it = std::stable_partition(
      rows.begin() + static_cast<ptrdiff_t>(begin),
      rows.begin() + static_cast<ptrdiff_t>(end), [&](size_t row) {
        return data.Feature(row, static_cast<size_t>(best.feature)) <=
               best.threshold;
      });
  const size_t mid =
      static_cast<size_t>(mid_it - rows.begin());
  // Guard against degenerate partitions: when two adjacent feature values
  // are consecutive doubles, their midpoint can round up onto the larger
  // value, sending every row to one side. Fall back to a leaf.
  if (mid == begin || mid == end) return make_leaf();

  importance_[static_cast<size_t>(best.feature)] += best.gain;
  Node node;
  node.feature = best.feature;
  node.threshold = best.threshold;
  node.value = mean;
  node.depth = depth;
  nodes_.push_back(node);
  const auto index = static_cast<int32_t>(nodes_.size() - 1);
  const int32_t left = Build(data, targets, rows, begin, mid, depth + 1, rng);
  const int32_t right = Build(data, targets, rows, mid, end, depth + 1, rng);
  nodes_[static_cast<size_t>(index)].left = left;
  nodes_[static_cast<size_t>(index)].right = right;
  return index;
}

double DecisionTree::Predict(const double* features) const {
  assert(!nodes_.empty());
  size_t index = 0;
  while (nodes_[index].feature >= 0) {
    const Node& node = nodes_[index];
    index = static_cast<size_t>(
        features[node.feature] <= node.threshold ? node.left : node.right);
  }
  return nodes_[index].value;
}

double DecisionTree::Predict(const Dataset& data, size_t row) const {
  return Predict(data.Row(row));
}

int DecisionTree::Depth() const {
  int depth = 0;
  for (const Node& node : nodes_) depth = std::max(depth, node.depth);
  return depth;
}

}  // namespace mlprov::ml
