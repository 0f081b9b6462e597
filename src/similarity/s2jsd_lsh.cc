#include "similarity/s2jsd_lsh.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "obs/metrics.h"

namespace mlprov::similarity {

namespace {

/// Hashes per pass of Buckets' dot-product loop.
constexpr int kHashBlock = 16;

std::vector<double> NormalizedPadded(const std::vector<double>& v,
                                     size_t dim) {
  std::vector<double> out(dim, 0.0);
  double total = 0.0;
  for (size_t i = 0; i < std::min(v.size(), dim); ++i) {
    total += std::max(0.0, v[i]);
  }
  if (total <= 0.0) return out;
  for (size_t i = 0; i < std::min(v.size(), dim); ++i) {
    out[i] = std::max(0.0, v[i]) / total;
  }
  return out;
}

}  // namespace

S2JsdLsh::S2JsdLsh(const Options& options) : options_(options) {
  common::Rng rng(options_.seed);
  const auto dim = static_cast<size_t>(options_.dim);
  const auto num_hashes = static_cast<size_t>(options_.num_hashes);
  projections_.resize(num_hashes * dim);
  // Drawn vector by vector, as the hash functions are defined.
  for (size_t h = 0; h < num_hashes; ++h) {
    for (size_t i = 0; i < dim; ++i) {
      projections_[i * num_hashes + h] = rng.Normal();
    }
  }
  offsets_.resize(num_hashes);
  for (double& b : offsets_) b = rng.Uniform(0.0, options_.bucket_width);
}

void S2JsdLsh::Buckets(double* p, int64_t* buckets) const {
  const int dim = options_.dim;
  const int num_hashes = options_.num_hashes;
  double total = 0.0;
  for (int i = 0; i < dim; ++i) total += std::max(0.0, p[i]);
  // Hellinger embedding: phi(P) = sqrt(P / |P|) elementwise.
  for (int i = 0; i < dim; ++i) {
    p[i] = total <= 0.0 ? 0.0 : std::sqrt(std::max(0.0, p[i]) / total);
  }
  // Each dot product accumulates over i in order, so every bucket is
  // bit-identical to a row-by-row evaluation.
  for (int h0 = 0; h0 < num_hashes; h0 += kHashBlock) {
    const int block = std::min(kHashBlock, num_hashes - h0);
    double dot[kHashBlock] = {};
    const double* a = projections_.data() + h0;
    for (int i = 0; i < dim; ++i, a += num_hashes) {
      for (int j = 0; j < block; ++j) dot[j] += a[j] * p[i];
    }
    for (int j = 0; j < block; ++j) {
      buckets[h0 + j] =
          FloorToInt64((dot[j] + offsets_[static_cast<size_t>(h0 + j)]) /
                       options_.bucket_width);
    }
  }
}

int64_t S2JsdLsh::Signature(const int64_t* buckets, int num_hashes) {
  // Combine the concatenated bucket indexes with an FNV-style mix.
  uint64_t signature = 0xCBF29CE484222325ull;
  for (int h = 0; h < num_hashes; ++h) {
    signature ^= static_cast<uint64_t>(buckets[h]) + 0x9E3779B97F4A7C15ull +
                 (signature << 6) + (signature >> 2);
  }
  return static_cast<int64_t>(signature);
}

std::vector<int64_t> S2JsdLsh::HashVector(
    const std::vector<double>& distribution) const {
  // Padded with zeros or truncated to dim.
  std::vector<double> p(static_cast<size_t>(options_.dim), 0.0);
  std::copy_n(distribution.begin(), std::min(distribution.size(), p.size()),
              p.begin());
  std::vector<int64_t> buckets(static_cast<size_t>(options_.num_hashes));
  Buckets(p.data(), buckets.data());
  return buckets;
}

int64_t S2JsdLsh::Hash(const std::vector<double>& distribution) const {
  const std::vector<int64_t> buckets = HashVector(distribution);
  return Signature(buckets.data(), options_.num_hashes);
}

double S2JsdLsh::S2Jsd(const std::vector<double>& p,
                       const std::vector<double>& q) {
  MLPROV_COUNTER_INC("similarity.s2jsd_calls");
  const size_t dim = std::max(p.size(), q.size());
  if (dim == 0) return 0.0;
  const std::vector<double> a = NormalizedPadded(p, dim);
  const std::vector<double> b = NormalizedPadded(q, dim);
  double js = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double m = 0.5 * (a[i] + b[i]);
    if (a[i] > 0.0 && m > 0.0) js += 0.5 * a[i] * std::log2(a[i] / m);
    if (b[i] > 0.0 && m > 0.0) js += 0.5 * b[i] * std::log2(b[i] / m);
  }
  js = std::max(0.0, js);
  return std::sqrt(2.0 * js);
}

}  // namespace mlprov::similarity
