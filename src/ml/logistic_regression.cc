#include "ml/logistic_regression.h"

#include <algorithm>
#include <cassert>
#include <cmath>

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

void LogisticRegression::Fit(const Dataset& data) {
  std::vector<size_t> rows(data.NumRows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  Fit(data, rows);
}

void LogisticRegression::Fit(const Dataset& data,
                             const std::vector<size_t>& rows) {
  const size_t d = data.NumFeatures();
  weights_.assign(d, 0.0);
  bias_ = 0.0;
  feature_mean_.assign(d, 0.0);
  feature_scale_.assign(d, 1.0);
  if (rows.empty() || d == 0) return;
  const double n = static_cast<double>(rows.size());

  // Standardize features for stable full-batch steps.
  for (size_t f = 0; f < d; ++f) {
    double sum = 0.0;
    for (size_t r : rows) sum += data.Feature(r, f);
    feature_mean_[f] = sum / n;
    double sq = 0.0;
    for (size_t r : rows) {
      const double c = data.Feature(r, f) - feature_mean_[f];
      sq += c * c;
    }
    const double stddev = std::sqrt(sq / n);
    feature_scale_[f] = stddev > 1e-12 ? stddev : 1.0;
  }

  // Class weights.
  size_t positives = 0;
  for (size_t r : rows) positives += static_cast<size_t>(data.Label(r));
  double w_pos = 1.0, w_neg = 1.0;
  if (options_.balance_classes && positives > 0 &&
      positives < rows.size()) {
    w_pos = n / (2.0 * static_cast<double>(positives));
    w_neg = n / (2.0 * static_cast<double>(rows.size() - positives));
  }

  // The row buffer comes first: allocated after the d + 1 step buffers,
  // GCC 12 at -O3 reports its size as possibly above the object limit.
  std::vector<double> x(d);
  std::vector<double> velocity(d + 1, 0.0);
  std::vector<double> gradient(d + 1, 0.0);
  for (int it = 0; it < options_.max_iterations; ++it) {
    std::fill(gradient.begin(), gradient.end(), 0.0);
    double weight_total = 0.0;
    for (size_t r : rows) {
      double z = bias_;
      for (size_t f = 0; f < d; ++f) {
        x[f] = (data.Feature(r, f) - feature_mean_[f]) / feature_scale_[f];
        z += weights_[f] * x[f];
      }
      const double p = Sigmoid(z);
      const double y = static_cast<double>(data.Label(r));
      const double cw = (data.Label(r) ? w_pos : w_neg) * data.Weight(r);
      const double err = (p - y) * cw;
      for (size_t f = 0; f < d; ++f) gradient[f] += err * x[f];
      gradient[d] += err;
      weight_total += cw;
    }
    double max_grad = 0.0;
    for (size_t f = 0; f <= d; ++f) {
      gradient[f] /= weight_total;
      if (f < d) gradient[f] += options_.l2 * weights_[f];
      max_grad = std::max(max_grad, std::abs(gradient[f]));
    }
    if (max_grad < options_.tolerance) break;
    for (size_t f = 0; f <= d; ++f) {
      velocity[f] = options_.momentum * velocity[f] -
                    options_.learning_rate * gradient[f];
    }
    for (size_t f = 0; f < d; ++f) weights_[f] += velocity[f];
    bias_ += velocity[d];
  }
}

double LogisticRegression::PredictProba(const Dataset& data,
                                        size_t row) const {
  assert(weights_.size() == data.NumFeatures());
  double z = bias_;
  for (size_t f = 0; f < weights_.size(); ++f) {
    z += weights_[f] *
         ((data.Feature(row, f) - feature_mean_[f]) / feature_scale_[f]);
  }
  return Sigmoid(z);
}

std::vector<double> LogisticRegression::PredictProba(
    const Dataset& data) const {
  std::vector<double> out(data.NumRows());
  for (size_t r = 0; r < data.NumRows(); ++r) {
    out[r] = PredictProba(data, r);
  }
  return out;
}

}  // namespace mlprov::ml
