#include "ml/gbdt.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace mlprov::ml {

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void Gbdt::Fit(const Dataset& data) {
  std::vector<size_t> rows(data.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Fit(data, rows);
}

void Gbdt::Fit(const Dataset& data, const std::vector<size_t>& rows) {
  trees_.clear();
  base_score_ = 0.0;
  if (rows.empty()) return;
  common::Rng rng(options_.seed);

  size_t positives = 0;
  for (size_t r : rows) positives += static_cast<size_t>(data.Label(r));
  double w_pos = 1.0, w_neg = 1.0;
  if (options_.balance_classes && positives > 0 &&
      positives < rows.size()) {
    const double n = static_cast<double>(rows.size());
    w_pos = n / (2.0 * static_cast<double>(positives));
    w_neg = n / (2.0 * static_cast<double>(rows.size() - positives));
  }
  // Initial log-odds under class weights (balanced => 0).
  const double pos_mass = w_pos * static_cast<double>(positives);
  const double neg_mass =
      w_neg * static_cast<double>(rows.size() - positives);
  const double p0 = std::clamp(pos_mass / (pos_mass + neg_mass), 1e-6,
                               1.0 - 1e-6);
  base_score_ = std::log(p0 / (1.0 - p0));

  // Margins indexed by dataset row (only rows in `rows` are used).
  std::vector<double> margin(data.NumRows(), base_score_);
  // Weighted pseudo-residuals, indexed by dataset row.
  std::vector<double> residual(data.NumRows(), 0.0);

  DecisionTree::Options tree_options;
  tree_options.task = DecisionTree::Task::kRegression;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;

  std::vector<size_t> round_rows;
  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t r : rows) {
      const double p = Sigmoid(margin[r]);
      const double y = static_cast<double>(data.Label(r));
      const double cw = data.Label(r) ? w_pos : w_neg;
      residual[r] = cw * (y - p);
    }
    round_rows.clear();
    if (options_.subsample < 1.0) {
      for (size_t r : rows) {
        if (rng.Bernoulli(options_.subsample)) round_rows.push_back(r);
      }
      if (round_rows.empty()) round_rows = rows;
    } else {
      round_rows = rows;
    }
    DecisionTree tree(tree_options);
    common::Rng tree_rng = rng.Fork();
    tree.Fit(data, round_rows, &residual, tree_rng);
    // Update margins with the shrunken tree output.
    for (size_t r : rows) {
      margin[r] += options_.learning_rate * tree.Predict(data.Row(r));
    }
    trees_.push_back(std::move(tree));
  }
}

double Gbdt::PredictMargin(const double* features) const {
  double z = base_score_;
  for (const DecisionTree& tree : trees_) {
    z += options_.learning_rate * tree.Predict(features);
  }
  return z;
}

double Gbdt::PredictProba(const Dataset& data, size_t row) const {
  return Sigmoid(PredictMargin(data.Row(row)));
}

std::vector<double> Gbdt::PredictProba(const Dataset& data) const {
  std::vector<double> out(data.NumRows());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    out[r] = PredictProba(data, r);
  }
  return out;
}

}  // namespace mlprov::ml
