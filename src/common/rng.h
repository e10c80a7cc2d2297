// Deterministic random-number utilities for workload generation.
//
// All EclipseMR workload generators and the discrete-event simulator draw
// from these so runs are reproducible from a single seed. The distributions
// mirror the paper's evaluation inputs: Zipfian word/popularity skew
// (HiBench text), Gaussian mixtures (k-means data and the Fig. 3/7 "two
// merged normal distributions" block-access trace), and power-law degree
// graphs (page rank).
#pragma once

#include <cstdint>
#include <vector>

namespace eclipse {

/// SplitMix64: tiny, fast, well-distributed; fine for workload synthesis.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n). n must be > 0.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Standard normal via Box–Muller.
  double NextGaussian();

  /// Normal with given mean / stddev.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

 private:
  std::uint64_t state_;
  bool have_spare_ = false;
  double spare_ = 0.0;
};

/// Zipf(s, n) sampler over ranks {0, ..., n-1} using the precomputed CDF.
/// s = 0 degenerates to uniform. HiBench-style text uses s ≈ 1.0.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  std::size_t Sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Mixture of normal distributions over a bounded numeric domain, used to
/// synthesize the skewed hash-key access traces of Fig. 3 / Fig. 7 ("we
/// synthetically merge two normal distributions that have different average
/// hash keys").
class GaussianMixture {
 public:
  struct Component {
    double weight;  // relative, need not sum to 1
    double mean;
    double stddev;
  };

  explicit GaussianMixture(std::vector<Component> components);

  /// Sample clamped into [lo, hi].
  double Sample(Rng& rng, double lo, double hi) const;

 private:
  std::vector<Component> components_;
  double total_weight_;
};

}  // namespace eclipse
