#include "dataspan/span_stats.h"

#include <algorithm>
#include <cmath>

namespace mlprov::dataspan {

size_t SpanStats::NumCategorical() const {
  size_t n = 0;
  for (const FeatureStats& f : features) {
    if (f.kind == FeatureKind::kCategorical) ++n;
  }
  return n;
}

SpanStatsGenerator::SpanStatsGenerator(const SchemaConfig& config,
                                       common::Rng rng)
    : config_(config), rng_(rng) {
  latents_.resize(static_cast<size_t>(std::max(1, config_.num_features)));
  names_.resize(latents_.size());
  for (size_t i = 0; i < latents_.size(); ++i) {
    LatentFeature& f = latents_[i];
    // A char prefix: GCC 12 at -O3 reports a false -Wrestrict overlap
    // for the const char* + std::string overload.
    names_[i] = 'f' + std::to_string(i);
    if (rng_.Bernoulli(config_.categorical_fraction)) {
      f.kind = FeatureKind::kCategorical;
      f.zipf_s = rng_.Uniform(1.05, 1.6);
      const double log10_domain =
          rng_.Normal(config_.log10_domain_mean, config_.log10_domain_stddev);
      f.domain = static_cast<int64_t>(
          std::pow(10.0, std::clamp(log10_domain, 1.3, 9.0)));
    } else {
      f.kind = FeatureKind::kNumerical;
      f.mean = rng_.Uniform(0.2, 0.8);
      f.stddev = rng_.Uniform(0.05, 0.25);
    }
  }
}

void SpanStatsGenerator::Shock(double magnitude) {
  for (LatentFeature& f : latents_) {
    if (f.kind == FeatureKind::kNumerical) {
      f.mean = std::clamp(f.mean + rng_.Normal(0.0, 0.15 * magnitude), 0.05,
                          0.95);
      f.stddev = std::clamp(f.stddev * rng_.LogNormal(0.0, 0.3 * magnitude),
                            0.02, 0.4);
    } else {
      f.zipf_s = std::clamp(f.zipf_s + rng_.Normal(0.0, 0.15 * magnitude),
                            1.01, 2.0);
    }
  }
}

SpanStats SpanStatsGenerator::NextSpan() {
  SpanStats span;
  span.span_number = next_span_++;
  span.features.reserve(latents_.size());
  // Ornstein-Uhlenbeck drift: latents revert slowly to their level while
  // receiving small kicks, so consecutive spans stay close.
  constexpr double kDriftSigma = 0.01;
  const auto rows = static_cast<int64_t>(
      std::pow(10.0, rng_.Normal(config_.log10_span_rows_mean, 0.3)));
  for (size_t i = 0; i < latents_.size(); ++i) {
    LatentFeature& lf = latents_[i];
    FeatureStats f;
    f.name = names_[i];
    f.kind = lf.kind;
    if (lf.kind == FeatureKind::kNumerical) {
      lf.mean = std::clamp(lf.mean + rng_.Normal(0.0, kDriftSigma), 0.02,
                           0.98);
      lf.stddev = std::clamp(lf.stddev + rng_.Normal(0.0, kDriftSigma / 2),
                             0.02, 0.4);
      // Analytic clipped-normal mass per equi-width bin; far cheaper than
      // sampling rows and keeps spans deterministic in the latents.
      double total = 0.0;
      for (int b = 0; b < kNumericBins; ++b) {
        const double lo = static_cast<double>(b) / kNumericBins;
        const double hi = static_cast<double>(b + 1) / kNumericBins;
        const double z_lo = (lo - lf.mean) / lf.stddev;
        const double z_hi = (hi - lf.mean) / lf.stddev;
        const double mass =
            0.5 * (std::erf(z_hi / std::sqrt(2.0)) -
                   std::erf(z_lo / std::sqrt(2.0)));
        f.bins[static_cast<size_t>(b)] = std::max(0.0, mass);
        total += f.bins[static_cast<size_t>(b)];
      }
      if (total > 0.0) {
        for (double& b : f.bins) {
          b = b / total * static_cast<double>(rows);
        }
      }
    } else {
      lf.zipf_s = std::clamp(lf.zipf_s + rng_.Normal(0.0, kDriftSigma), 1.01,
                             2.0);
      f.unique_terms = lf.domain;
      f.total_count = rows;
      // Zipf top-10 frequencies: p(k) ∝ k^-s; normalize by a truncated
      // harmonic estimate H(N, s) computed in closed form for large N.
      const double s = lf.zipf_s;
      double harmonic = 0.0;
      const int64_t exact_terms = std::min<int64_t>(lf.domain, 1000);
      for (int64_t k = 1; k <= exact_terms; ++k) {
        harmonic += std::pow(static_cast<double>(k), -s);
      }
      if (lf.domain > exact_terms) {
        // Integral tail approximation of sum_{exact+1}^{N} k^-s.
        const double a = static_cast<double>(exact_terms);
        const double b = static_cast<double>(lf.domain);
        harmonic += (std::pow(b, 1.0 - s) - std::pow(a, 1.0 - s)) / (1.0 - s);
      }
      for (int k = 0; k < kTopTerms; ++k) {
        const double p =
            std::pow(static_cast<double>(k + 1), -s) / harmonic;
        f.top_term_counts[static_cast<size_t>(k)] =
            p * static_cast<double>(rows);
      }
    }
    span.features.push_back(std::move(f));
  }
  return span;
}

}  // namespace mlprov::dataspan
