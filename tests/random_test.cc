#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace oasis {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBounded(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 8, 450);  // ~4.5 sigma of binomial(80000, 1/8).
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double min = 1.0;
  double max = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    min = std::min(min, u);
    max = std::max(max, u);
  }
  EXPECT_LT(min, 0.01);
  EXPECT_GT(max, 0.99);
}

TEST(RngTest, BernoulliFrequencyMatchesProbability) {
  Rng rng(17);
  const double p = 0.3;
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.01);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(23);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMomentsMatchShape) {
  Rng rng(29);
  const double shape = 3.5;
  double sum = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) sum += rng.NextGamma(shape);
  EXPECT_NEAR(sum / n, shape, 0.08);  // Gamma(k,1) has mean k.
}

TEST(RngTest, GammaSmallShapeMean) {
  Rng rng(31);
  const double shape = 0.4;
  double sum = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) sum += rng.NextGamma(shape);
  EXPECT_NEAR(sum / n, shape, 0.03);
}

TEST(RngTest, BetaMomentsMatch) {
  Rng rng(37);
  const double a = 2.0;
  const double b = 6.0;
  double sum = 0.0;
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextBeta(a, b);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, a / (a + b), 0.01);
}

TEST(RngTest, DiscreteLinearMatchesWeights) {
  Rng rng(41);
  const std::vector<double> weights{1.0, 0.0, 3.0, 6.0};
  std::vector<int> counts(4, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextDiscreteLinear(weights)];
  EXPECT_EQ(counts[1], 0);  // Zero-weight category never drawn.
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[3] / static_cast<double>(n), 0.6, 0.01);
}

// --- NextDiscreteFromRunningSums == NextDiscreteLinear ---------------------

/// The in-order running sums the bit-identity contract is stated over.
std::vector<double> RunningSums(const std::vector<double>& weights) {
  std::vector<double> sums(weights.size());
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    sums[i] = acc;
  }
  return sums;
}

/// NextDiscreteLinear's scan at a fixed target (its first loop only feeds the
/// target; the second is restated here so a target can be forced).
size_t LinearScanAt(const std::vector<double>& weights, double target) {
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

/// Weight vectors covering the shapes the draw must get exactly right.
std::vector<std::vector<double>> DrawCases() {
  std::vector<std::vector<double>> cases = {
      {0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0},  // Zeros at the start, middle, end.
      {0.0, 0.0, 0.0, 5.0, 0.0, 0.0},       // A single positive entry.
      {7.0},                                 // K = 1.
      {1.0, 1e-20, 1e-300, 1.0, 1e-18, 0.0},  // Too small to move the sum.
      {1e-300, 1e-300, 1e-300},              // A tiny total.
  };
  Rng shape(97);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> weights(1 + shape.NextBounded(300));
    for (double& w : weights) {
      const double u = shape.NextDouble();
      // A mix of zeros, tiny and ordinary weights.
      w = u < 0.2 ? 0.0 : (u < 0.3 ? 1e-19 * u : u);
    }
    weights[shape.NextBounded(weights.size())] = 1.0;  // Positive total.
    cases.push_back(std::move(weights));
  }
  return cases;
}

TEST(RngTest, DiscreteFromRunningSumsMatchesLinearDrawForDraw) {
  for (const std::vector<double>& weights : DrawCases()) {
    const std::vector<double> sums = RunningSums(weights);
    Rng linear(2024);
    Rng prefix(2024);
    for (int draw = 0; draw < 2000; ++draw) {
      ASSERT_EQ(prefix.NextDiscreteFromRunningSums(weights, sums),
                linear.NextDiscreteLinear(weights))
          << "K=" << weights.size() << " draw " << draw;
    }
    // One NextDouble per draw on both sides: the streams stay in step.
    EXPECT_EQ(prefix.NextUint64(), linear.NextUint64());
  }
}

TEST(RngTest, DiscreteFromRunningSumsMatchesLinearAtEveryBoundary) {
  for (const std::vector<double>& weights : DrawCases()) {
    const std::vector<double> sums = RunningSums(weights);
    for (const double sum : sums) {
      for (const double target :
           {std::nextafter(sum, 0.0), sum, std::nextafter(sum, 2.0 * sum)}) {
        EXPECT_EQ(DiscreteIndexFromRunningSums(weights, sums, target),
                  LinearScanAt(weights, target))
            << "K=" << weights.size() << " target " << target;
      }
    }
  }
}

TEST(RngTest, DiscreteFromRunningSumsFallsBackToLastPositiveWeight) {
  // A target at or past the total (the floating-point slack NextDouble() *
  // total can round into) finds no running sum above it; both draws then
  // return the last positive-weight index, skipping trailing zeros.
  const std::vector<double> weights{0.0, 3.0, 0.0, 1.0, 0.0, 0.0};
  const std::vector<double> sums = RunningSums(weights);
  for (const double target : {sums.back(), 2.0 * sums.back()}) {
    EXPECT_EQ(DiscreteIndexFromRunningSums(weights, sums, target), 3u);
    EXPECT_EQ(LinearScanAt(weights, target), 3u);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(43);
  std::vector<int> items{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(47);
  for (size_t k : {0u, 1u, 5u, 50u, 100u}) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t s : sample) EXPECT_LT(s, 100u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullSet) {
  Rng rng(53);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(10, 10);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, ForkIsAPureFunctionOfSeedAndStream) {
  // Same (seed, stream) always reproduces the same generator — no hidden
  // state, which is what makes parallel experiment repeats bit-identical.
  Rng a = Rng::Fork(123, 7);
  Rng b = Rng::Fork(123, 7);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, ForkStreamsDiffer) {
  Rng s0 = Rng::Fork(123, 0);
  Rng s1 = Rng::Fork(123, 1);
  Rng other_seed = Rng::Fork(124, 0);
  int same01 = 0;
  int same_seed = 0;
  for (int i = 0; i < 64; ++i) {
    const uint64_t x0 = s0.NextUint64();
    if (x0 == s1.NextUint64()) ++same01;
    if (x0 == other_seed.NextUint64()) ++same_seed;
  }
  EXPECT_LT(same01, 2);
  EXPECT_LT(same_seed, 2);
}

TEST(RngTest, ForkNeighbouringStreamsDecorrelated) {
  // Low-bit correlation across adjacent streams would show up as matching
  // parities; expect roughly half matches.
  int parity_match = 0;
  for (uint64_t stream = 0; stream < 256; ++stream) {
    Rng a = Rng::Fork(9, stream);
    Rng b = Rng::Fork(9, stream + 1);
    if ((a.NextUint64() & 1) == (b.NextUint64() & 1)) ++parity_match;
  }
  EXPECT_GT(parity_match, 96);   // ~128 expected.
  EXPECT_LT(parity_match, 160);
}

TEST(RngTest, SplitStreamsAreIndependentish) {
  Rng parent(59);
  Rng child = parent.Split();
  // The child stream should not reproduce the parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextUint64() == child.NextUint64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace oasis
