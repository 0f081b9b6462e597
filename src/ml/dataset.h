#ifndef MLPROV_ML_DATASET_H_
#define MLPROV_ML_DATASET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mlprov::ml {

/// Dense binary-classification dataset: row-major feature matrix, 0/1
/// labels, and an optional group id per row (used for grouped train/test
/// splits, e.g. by pipeline, as in Section 5.2.2 where whole pipelines go
/// to either side of the split).
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names);

  /// Appends a row. `features` must match the configured feature count.
  void AddRow(const std::vector<double>& features, int label,
              int64_t group = 0, double weight = 1.0);

  size_t NumRows() const { return labels_.size(); }
  size_t NumFeatures() const { return feature_names_.size(); }

  double Feature(size_t row, size_t col) const {
    return data_[row * NumFeatures() + col];
  }
  /// The row's NumFeatures() values, contiguous in the row-major matrix;
  /// valid until the next AddRow.
  const double* Row(size_t row) const {
    return data_.data() + row * NumFeatures();
  }
  int Label(size_t row) const { return labels_[row]; }
  int64_t Group(size_t row) const { return groups_[row]; }
  double Weight(size_t row) const { return weights_[row]; }

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Fraction of rows with label 1.
  double PositiveFraction() const;

  /// Returns a dataset restricted to `rows` (indices into this one).
  Dataset Subset(const std::vector<size_t>& rows) const;

  /// Returns a dataset keeping only the feature columns in `columns`
  /// (used by the Section 5.3.3 ablation study).
  Dataset SelectFeatures(const std::vector<size_t>& columns) const;

  /// Splits rows by group id so that the training side holds roughly
  /// `train_fraction` of all rows while whole groups stay together
  /// (greedy bin packing over shuffled groups). Returns {train_rows,
  /// test_rows}.
  std::pair<std::vector<size_t>, std::vector<size_t>> GroupSplit(
      double train_fraction, common::Rng& rng) const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<double> data_;  // row-major
  std::vector<int> labels_;
  std::vector<int64_t> groups_;
  std::vector<double> weights_;
};

}  // namespace mlprov::ml

#endif  // MLPROV_ML_DATASET_H_
