#ifndef MLPROV_ML_RANDOM_FOREST_H_
#define MLPROV_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"

namespace mlprov::ml {

/// Random forest binary classifier: bagged CART trees with per-split
/// feature subsampling; the predicted probability is the mean of the
/// trees' leaf fractions. This is the model family the paper found to
/// match AutoML-grade models on the waste-prediction task (Section 5.2.2).
///
/// Fit compiles the trees into one contiguous node array, the only
/// inference path: PredictProba walks kLanes trees at a time in lockstep
/// for the forest's maximum depth, choosing each child by index rather
/// than by branch. Leaves point to themselves, NaN goes right, and leaf
/// values are summed in tree order, so every probability is bit-identical
/// to the mean of the trees' DecisionTree::Predict.
class RandomForest {
 public:
  /// Trees one walk advances together.
  static constexpr size_t kLanes = 16;

  struct Options {
    int num_trees = 60;
    int max_depth = 14;
    size_t min_samples_leaf = 2;
    /// Features per split; 0 = floor(sqrt(num_features)).
    size_t max_features = 0;
    /// Bootstrap sample size as a fraction of the training rows.
    double subsample = 1.0;
    /// Upweight the minority class to its balanced share (the paper's
    /// corpus is 80/20 unpushed/pushed).
    bool balance_classes = true;
    uint64_t seed = 17;
  };

  explicit RandomForest(const Options& options) : options_(options) {}

  /// Fits on all rows of `data`.
  void Fit(const Dataset& data);
  /// Fits on a subset of rows.
  void Fit(const Dataset& data, const std::vector<size_t>& rows);

  /// Positive-class probability for one row of `data`.
  double PredictProba(const Dataset& data, size_t row) const;
  /// Probabilities for all rows.
  std::vector<double> PredictProba(const Dataset& data) const;
  /// Positive-class probability for the row whose feature values start
  /// at `features` (laid out as MapFeatures last set, if it was called).
  /// Thread-safe: all walk state lives on the stack.
  double PredictProba(const double* features) const;

  /// Re-points every compiled split of the fitted forest: feature `f` is
  /// read from column `columns[f]` of the rows passed to PredictProba, so
  /// a forest fitted on a column projection scores full rows in place.
  /// Afterwards only the pointer overload of PredictProba is meaningful.
  void MapFeatures(const std::vector<size_t>& columns);

  /// Normalized impurity-decrease feature importance (sums to 1 when any
  /// split exists).
  std::vector<double> FeatureImportance() const;

  /// The fitted trees, in the order their leaf values are summed.
  const std::vector<DecisionTree>& trees() const { return trees_; }
  size_t NumTrees() const { return trees_.size(); }
  bool IsFitted() const { return !trees_.empty(); }

 private:
  /// A node of the compiled forest. A leaf's children are itself, and
  /// its feature is 0, a column every row has.
  struct Node {
    double threshold = 0.0;
    double value = 0.0;  // leaf prediction
    int32_t feature = 0;
    int32_t child[2] = {0, 0};  // {x[feature] <= threshold, otherwise}
  };

  void Compile();

  Options options_;
  std::vector<DecisionTree> trees_;
  size_t num_features_ = 0;
  /// Every tree's nodes in preorder, tree after tree.
  std::vector<Node> nodes_;
  /// Each tree's root in nodes_, padded to whole blocks of kLanes with
  /// lanes parked on a leaf whose value is never summed.
  std::vector<int32_t> roots_;
  /// Deepest leaf of any tree: the steps one walk takes.
  int depth_ = 0;
};

}  // namespace mlprov::ml

#endif  // MLPROV_ML_RANDOM_FOREST_H_
