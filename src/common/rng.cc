#include "common/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace eclipse {

double Rng::NextGaussian() {
  if (have_spare_) {
    have_spare_ = false;
    return spare_;
  }
  // Box–Muller; reject u1 == 0 to keep log() finite.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  spare_ = r * std::sin(theta);
  have_spare_ = true;
  return r * std::cos(theta);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  assert(n > 0);
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
  cdf_.back() = 1.0;  // guard against FP rounding
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin());
}

GaussianMixture::GaussianMixture(std::vector<Component> components)
    : components_(std::move(components)), total_weight_(0.0) {
  assert(!components_.empty());
  for (const auto& c : components_) total_weight_ += c.weight;
  assert(total_weight_ > 0.0);
}

double GaussianMixture::Sample(Rng& rng, double lo, double hi) const {
  double pick = rng.NextDouble() * total_weight_;
  const Component* chosen = &components_.back();
  for (const auto& c : components_) {
    if (pick < c.weight) {
      chosen = &c;
      break;
    }
    pick -= c.weight;
  }
  double v = rng.NextGaussian(chosen->mean, chosen->stddev);
  return std::clamp(v, lo, hi);
}

}  // namespace eclipse
