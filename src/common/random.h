#ifndef OASIS_COMMON_RANDOM_H_
#define OASIS_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace oasis {

/// Deterministic, splittable pseudo-random generator.
///
/// Wraps a 64-bit xoshiro256**-style engine seeded via SplitMix64. Every
/// randomised component of the library takes an Rng (or a seed) so that
/// experiments are exactly reproducible; Split() derives statistically
/// independent child streams, which the experiment runner uses to make
/// multi-threaded repeats order-independent.
class Rng {
 public:
  static constexpr uint64_t kDefaultSeed = 0x9e3779b97f4a7c15ULL;

  /// Constructs a generator from a 64-bit seed. Two Rngs constructed from the
  /// same seed produce identical streams.
  explicit Rng(uint64_t seed = kDefaultSeed);

  /// Returns the next raw 64-bit output.
  uint64_t NextUint64();

  /// Returns an unbiased draw from {0, 1, ..., bound - 1}; bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Returns a draw from the half-open interval [0, 1).
  double NextDouble();

  /// Returns a Bernoulli(p) draw; p outside [0,1] behaves as clamped.
  bool NextBernoulli(double p);

  /// Returns a standard normal draw (Box–Muller; caches the spare value).
  double NextGaussian();

  /// Returns a Gamma(shape, 1) draw (Marsaglia–Tsang; shape > 0).
  double NextGamma(double shape);

  /// Returns a Beta(a, b) draw via two gamma draws.
  double NextBeta(double a, double b);

  /// Returns an index drawn from the (unnormalised, non-negative) weight
  /// vector by linear inverse-CDF scan. O(n) per draw; used by components
  /// that mimic the paper's reference implementation. Sum of weights must
  /// be positive.
  size_t NextDiscreteLinear(std::span<const double> weights);

  /// O(log n) twin of NextDiscreteLinear for callers that already hold the
  /// running sums of `weights`. Bit-identity contract: when
  /// `running_sums[i]` is the in-order double sum
  /// (((0.0 + weights[0]) + weights[1]) + ... + weights[i]) — the very
  /// additions NextDiscreteLinear performs — this consumes the same single
  /// NextDouble() and returns the same index, including the fallback to the
  /// last positive weight. Weights must be non-negative (so the sums never
  /// decrease) and their sum positive.
  size_t NextDiscreteFromRunningSums(std::span<const double> weights,
                                     std::span<const double> running_sums);

  /// Derives an independent child generator; advances this generator.
  Rng Split();

  /// Counter-derived stream: a pure function of (seed, stream), so any
  /// worker can reconstruct stream `i` without touching shared RNG state —
  /// this is what makes multi-threaded experiment repeats bit-identical
  /// regardless of scheduling order. Distinct streams of the same seed never
  /// collide (the derivation is injective in `stream`), and the constructor's
  /// SplitMix64 seeding decorrelates neighbouring streams.
  static Rng Fork(uint64_t seed, uint64_t stream);

  /// Fisher–Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

  /// Samples `k` distinct indices from {0, ..., n-1} (k <= n) in random
  /// order: partial Fisher–Yates when k is a large fraction of n, rejection
  /// sampling with a hash set otherwise.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

/// The index NextDiscreteFromRunningSums returns for a given `target`: the
/// first i with target < running_sums[i] (binary search), or, when none is
/// (floating-point slack at target ~ total), the last index with a positive
/// weight. Exposed so tests can force the fallback; the same rule as the
/// linear scan at every target.
size_t DiscreteIndexFromRunningSums(std::span<const double> weights,
                                    std::span<const double> running_sums,
                                    double target);

}  // namespace oasis

#endif  // OASIS_COMMON_RANDOM_H_
