#include "dataspan/feature_stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mlprov::dataspan {

namespace {

/// Distributes `mass` that is uniform over [lo, hi) (within [0,1]) across
/// `n` equal-width bins of width `bin_w` = 1.0 / n over [0,1],
/// accumulating into `out`.
void Spread(double lo, double hi, double mass, double* out, int n,
            double bin_w) {
  if (mass <= 0.0 || hi <= lo) return;
  const double width = hi - lo;
  int first = std::clamp(static_cast<int>(lo / bin_w), 0, n - 1);
  int last = std::clamp(static_cast<int>((hi - 1e-15) / bin_w), 0, n - 1);
  for (int b = first; b <= last; ++b) {
    const double b_lo = b * bin_w;
    const double b_hi = b_lo + bin_w;
    const double overlap =
        std::max(0.0, std::min(hi, b_hi) - std::max(lo, b_lo));
    out[b] += mass * overlap / width;
  }
}

}  // namespace

Rebinning::Rebinning(int out_bins)
    : out_bins_(out_bins), bin_width_(1.0 / out_bins) {
  assert(out_bins >= 1);
  // Spread's arithmetic over recorded bin i's [i/10, (i+1)/10), run once:
  // every stored overlap and width is bit-identical to the one Spread
  // computes per feature.
  const int n = out_bins;
  const double bin_w = bin_width_;
  for (int i = 0; i < kNumericBins; ++i) {
    begin_[static_cast<size_t>(i)] = terms_.size();
    const double lo = static_cast<double>(i) / kNumericBins;
    const double hi = static_cast<double>(i + 1) / kNumericBins;
    width_[static_cast<size_t>(i)] = hi - lo;
    const int first = std::clamp(static_cast<int>(lo / bin_w), 0, n - 1);
    const int last =
        std::clamp(static_cast<int>((hi - 1e-15) / bin_w), 0, n - 1);
    for (int b = first; b <= last; ++b) {
      const double b_lo = b * bin_w;
      const double b_hi = b_lo + bin_w;
      terms_.push_back(
          {b, std::max(0.0, std::min(hi, b_hi) - std::max(lo, b_lo))});
    }
  }
  begin_[kNumericBins] = terms_.size();
}

void Rebinning::SpreadNumeric(int bin, double mass, double* out) const {
  if (mass <= 0.0) return;
  const auto i = static_cast<size_t>(bin);
  const double width = width_[i];
  for (size_t t = begin_[i]; t < begin_[i + 1]; ++t) {
    out[terms_[t].out_bin] += mass * terms_[t].overlap / width;
  }
}

bool FeatureStats::Empty() const {
  if (kind == FeatureKind::kNumerical) {
    for (double b : bins) {
      if (b > 0.0) return false;
    }
    return true;
  }
  return total_count <= 0;
}

std::vector<double> FeatureStats::ToDistribution(int out_bins) const {
  assert(out_bins >= 1);
  std::vector<double> out(static_cast<size_t>(out_bins));
  ToDistribution(Rebinning(out_bins), out.data());
  return out;
}

void FeatureStats::ToDistribution(const Rebinning& rebinning,
                                  double* out) const {
  const int out_bins = rebinning.out_bins();
  const double bin_w = rebinning.bin_width();
  std::fill(out, out + out_bins, 0.0);
  if (kind == FeatureKind::kNumerical) {
    double total = 0.0;
    for (double b : bins) total += std::max(0.0, b);
    if (total <= 0.0) return;
    // Each recorded bin covers [i/10, (i+1)/10); re-spread into out_bins.
    for (int i = 0; i < kNumericBins; ++i) {
      rebinning.SpreadNumeric(
          i, std::max(0.0, bins[static_cast<size_t>(i)]) / total, out);
    }
    return;
  }

  // Categorical: Appendix B construction. Sorted normalized term
  // frequencies over bins of width 1/N, remaining mass uniform over the
  // N-10 non-top terms.
  if (total_count <= 0 || unique_terms <= 0) return;
  const double n_terms = static_cast<double>(unique_terms);
  std::array<double, kTopTerms> top = top_term_counts;
  std::sort(top.begin(), top.end(), std::greater<>());
  double top_mass = 0.0;
  const int observed_top =
      static_cast<int>(std::min<int64_t>(unique_terms, kTopTerms));
  for (int i = 0; i < observed_top; ++i) {
    top_mass += std::max(0.0, top[static_cast<size_t>(i)]);
  }
  const double total = static_cast<double>(total_count);
  top_mass = std::min(top_mass, total);
  // Term i covers [edge[i], edge[i + 1]); the tail starts at edge[10].
  std::array<double, kTopTerms + 1> edge = {};
  for (int i = 0; i <= observed_top; ++i) {
    edge[static_cast<size_t>(i)] = static_cast<double>(i) / n_terms;
  }
  // In a large domain every top term lies in output bin 0: division is
  // monotone, so Spread's first and last bin indices for each term are
  // at most edge[observed_top] / bin_w, truncated to 0. Only its bin-0
  // step remains, with b_lo = 0 and b_hi = bin_w.
  const bool all_in_first_bin = edge[observed_top] / bin_w < 1.0;
  for (int i = 0; i < observed_top; ++i) {
    const double p = std::max(0.0, top[static_cast<size_t>(i)]) / total;
    const double lo = edge[static_cast<size_t>(i)];
    const double hi = edge[static_cast<size_t>(i) + 1];
    if (!all_in_first_bin) {
      Spread(lo, hi, p, out, out_bins, bin_w);
    } else if (!(p <= 0.0 || hi <= lo)) {
      const double overlap =
          std::max(0.0, std::min(hi, bin_w) - std::max(lo, 0.0));
      out[0] += p * overlap / (hi - lo);
    }
  }
  if (unique_terms > kTopTerms) {
    const double tail_mass = std::max(0.0, (total - top_mass) / total);
    Spread(edge[kTopTerms], 1.0, tail_mass, out, out_bins, bin_w);
  }
}

}  // namespace mlprov::dataspan
