#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"

namespace oasis {

namespace {

/// SplitMix64 step, used for seeding and stream splitting.
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Floating-point slack of an inverse-CDF draw (the target reached the
/// total): the last positive-weight index.
size_t LastPositiveIndex(std::span<const double> weights) {
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  // xoshiro256** requires a nonzero state; SplitMix64 seeding guarantees the
  // all-zero state is (practically) unreachable, but guard regardless.
  for (auto& s : state_) s = SplitMix64(sm);
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
}

uint64_t Rng::NextUint64() {
  // xoshiro256** by Blackman & Vigna (public domain reference algorithm).
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  OASIS_DCHECK(bound > 0);
  // Lemire-style rejection to remove modulo bias.
  uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_gaussian_ = radius * std::sin(theta);
  has_spare_gaussian_ = true;
  return radius * std::cos(theta);
}

double Rng::NextGamma(double shape) {
  OASIS_DCHECK(shape > 0.0);
  if (shape < 1.0) {
    // Boost to shape + 1 and correct (Marsaglia–Tsang trick).
    const double u = NextDouble();
    return NextGamma(shape + 1.0) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = NextGaussian();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    const double u = NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::NextBeta(double a, double b) {
  const double x = NextGamma(a);
  const double y = NextGamma(b);
  const double sum = x + y;
  if (sum <= 0.0) return 0.5;
  return x / sum;
}

size_t Rng::NextDiscreteLinear(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    OASIS_DCHECK(w >= 0.0);
    total += w;
  }
  OASIS_CHECK(total > 0.0) << "NextDiscreteLinear requires positive total weight";
  const double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  return LastPositiveIndex(weights);
}

size_t Rng::NextDiscreteFromRunningSums(std::span<const double> weights,
                                        std::span<const double> running_sums) {
  OASIS_DCHECK(weights.size() == running_sums.size());
  const double total = running_sums.empty() ? 0.0 : running_sums.back();
  OASIS_CHECK(total > 0.0)
      << "NextDiscreteFromRunningSums requires positive total weight";
  return DiscreteIndexFromRunningSums(weights, running_sums,
                                      NextDouble() * total);
}

size_t DiscreteIndexFromRunningSums(std::span<const double> weights,
                                    std::span<const double> running_sums,
                                    double target) {
  // Non-negative weights make the sums non-decreasing, so the linear scan's
  // "first i with target < acc" is exactly upper_bound.
  const auto it =
      std::upper_bound(running_sums.begin(), running_sums.end(), target);
  if (it != running_sums.end()) {
    return static_cast<size_t>(it - running_sums.begin());
  }
  return LastPositiveIndex(weights);
}

Rng Rng::Fork(uint64_t seed, uint64_t stream) {
  // Odd multiplier => (stream + 1) * kGolden is injective mod 2^64, so two
  // distinct stream indices can never alias to the same child seed. The Rng
  // constructor then runs the combined seed through SplitMix64, which is the
  // actual stream separator.
  return Rng(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
}

Rng Rng::Split() {
  // Derive the child from two fresh outputs so parent and child streams do
  // not overlap in practice.
  uint64_t mix = NextUint64();
  uint64_t child_seed = SplitMix64(mix) ^ NextUint64();
  return Rng(child_seed);
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  OASIS_CHECK_LE(k, n);
  std::vector<size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 >= n) {
    // Partial Fisher–Yates over a full index vector.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + static_cast<size_t>(NextBounded(n - i));
      std::swap(idx[i], idx[j]);
      out.push_back(idx[i]);
    }
    return out;
  }
  std::unordered_set<size_t> seen;
  seen.reserve(k * 2);
  while (out.size() < k) {
    size_t candidate = static_cast<size_t>(NextBounded(n));
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

}  // namespace oasis
