#ifndef MLPROV_ML_DECISION_TREE_H_
#define MLPROV_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace mlprov::ml {

/// CART tree supporting binary classification (Gini impurity, leaf emits
/// the positive-class fraction) and least-squares regression (used as the
/// weak learner in GBDT). Axis-aligned numeric splits of the form
/// `x[feature] <= threshold`.
class DecisionTree {
 public:
  enum class Task { kClassification, kRegression };

  struct Options {
    Task task = Task::kClassification;
    int max_depth = 12;
    size_t min_samples_leaf = 2;
    size_t min_samples_split = 4;
    /// Number of features examined per split; 0 means all (a random forest
    /// passes ~sqrt(num_features)).
    size_t max_features = 0;
  };

  explicit DecisionTree(const Options& options) : options_(options) {}

  /// Fits on `rows` of `data`. For regression, `targets` (parallel to
  /// data rows) overrides the dataset's labels; pass nullptr for
  /// classification. `rng` drives the per-split feature subsampling.
  void Fit(const Dataset& data, const std::vector<size_t>& rows,
           const std::vector<double>* targets, common::Rng& rng);

  /// Classification: positive-class probability. Regression: predicted
  /// value.
  double Predict(const double* features) const;
  double Predict(const Dataset& data, size_t row) const;

  struct Node {
    int feature = -1;  // -1 for leaf
    double threshold = 0.0;
    int32_t left = -1;
    int32_t right = -1;
    double value = 0.0;  // leaf prediction
    int depth = 0;
  };

  /// The fitted nodes in preorder: the root is node 0, and every split
  /// is followed by its left subtree, then its right subtree, so the
  /// last node is always a leaf.
  const std::vector<Node>& nodes() const { return nodes_; }
  size_t NumNodes() const { return nodes_.size(); }
  int Depth() const;
  bool IsFitted() const { return !nodes_.empty(); }

  /// Per-feature total impurity decrease (unnormalized importance).
  const std::vector<double>& FeatureImportance() const {
    return importance_;
  }

 private:
  int32_t Build(const Dataset& data, const std::vector<double>* targets,
                std::vector<size_t>& rows, size_t begin, size_t end,
                int depth, common::Rng& rng);

  Options options_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace mlprov::ml

#endif  // MLPROV_ML_DECISION_TREE_H_
