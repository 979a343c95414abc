#include "strata/csf.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "datagen/scenario.h"

namespace oasis {
namespace {

/// Builds an ER-like score vector: a huge mass of low scores and a tiny tail
/// of high scores (cf. the paper's Figure 1 setting).
std::vector<double> ImbalancedScores(size_t low, size_t high, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> scores;
  scores.reserve(low + high);
  for (size_t i = 0; i < low; ++i) scores.push_back(0.02 + 0.1 * rng.NextDouble());
  for (size_t i = 0; i < high; ++i) scores.push_back(0.7 + 0.3 * rng.NextDouble());
  return scores;
}

TEST(CsfTest, RejectsBadArguments) {
  const std::vector<double> scores{0.1, 0.2};
  EXPECT_FALSE(StratifyCsf({}, 5).ok());
  EXPECT_FALSE(StratifyCsf(scores, 0).ok());
  CsfOptions options;
  options.target_strata = 10;
  options.histogram_bins = 5;  // Fewer bins than strata.
  EXPECT_FALSE(StratifyCsf(scores, options).ok());
}

TEST(CsfTest, AllItemsAllocatedExactlyOnce) {
  const std::vector<double> scores = ImbalancedScores(5000, 50, 7);
  Strata strata = StratifyCsf(scores, 30).ValueOrDie();
  EXPECT_EQ(strata.num_items(), scores.size());
  EXPECT_TRUE(strata.Validate().ok());
}

TEST(CsfTest, ProducesAtMostRequestedStrata) {
  const std::vector<double> scores = ImbalancedScores(5000, 50, 11);
  for (size_t k : {2u, 10u, 30u, 60u}) {
    Strata strata = StratifyCsf(scores, k).ValueOrDie();
    EXPECT_LE(strata.num_strata(), k);
    EXPECT_GE(strata.num_strata(), 1u);
  }
}

TEST(CsfTest, ImbalancedScoresYieldSmallHighStrata) {
  // The paper's Figure 1 shape: strata covering high scores must be much
  // smaller than strata covering the low-score mass.
  const std::vector<double> scores = ImbalancedScores(20000, 100, 13);
  Strata strata = StratifyCsf(scores, 30).ValueOrDie();
  ASSERT_GE(strata.num_strata(), 2u);

  const std::vector<double> mean_scores = strata.MeanPerStratum(scores);
  // Find the stratum with the highest mean score and the one with the lowest.
  size_t hi = 0;
  size_t lo = 0;
  for (size_t k = 1; k < strata.num_strata(); ++k) {
    if (mean_scores[k] > mean_scores[hi]) hi = k;
    if (mean_scores[k] < mean_scores[lo]) lo = k;
  }
  EXPECT_LT(strata.size(hi) * 10, strata.size(lo));
}

TEST(CsfTest, UniformScoresGiveRoughlyEqualStrata) {
  Rng rng(17);
  std::vector<double> scores;
  for (int i = 0; i < 20000; ++i) scores.push_back(rng.NextDouble());
  Strata strata = StratifyCsf(scores, 10).ValueOrDie();
  EXPECT_EQ(strata.num_strata(), 10u);
  for (size_t k = 0; k < strata.num_strata(); ++k) {
    EXPECT_NEAR(static_cast<double>(strata.size(k)), 2000.0, 400.0);
  }
}

TEST(CsfTest, ConstantScoresCollapseToOneStratum) {
  const std::vector<double> scores(100, 0.5);
  Strata strata = StratifyCsf(scores, 10).ValueOrDie();
  EXPECT_EQ(strata.num_strata(), 1u);
  EXPECT_EQ(strata.size(0), 100u);
}

TEST(CsfTest, StrataAreScoreOrderedIntervals) {
  const std::vector<double> scores = ImbalancedScores(3000, 60, 19);
  Strata strata = StratifyCsf(scores, 20).ValueOrDie();
  // For every pair of items, a higher score must never land in a lower
  // stratum (strata are intervals on the score axis).
  for (size_t i = 0; i < scores.size(); i += 97) {
    for (size_t j = 0; j < scores.size(); j += 89) {
      if (scores[i] < scores[j]) {
        EXPECT_LE(strata.stratum_of(static_cast<int64_t>(i)),
                  strata.stratum_of(static_cast<int64_t>(j)));
      }
    }
  }
}

TEST(CsfTest, LogitTransformResolvesSquashedProbabilities) {
  // Probability scores crammed near zero (prior-corrected calibration under
  // extreme imbalance): raw CSF cannot split the low region because the
  // equal-width histogram puts everything into one bin; the logit transform
  // can.
  Rng rng(29);
  std::vector<double> scores;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(1e-5 * std::exp(3.0 * rng.NextDouble()));  // ~1e-5..2e-4
  }
  for (int i = 0; i < 60; ++i) {
    scores.push_back(0.2 + 0.7 * rng.NextDouble());  // High-probability tail.
  }

  CsfOptions raw;
  raw.target_strata = 30;
  Strata raw_strata = StratifyCsf(scores, raw).ValueOrDie();

  CsfOptions logit;
  logit.target_strata = 30;
  logit.logit_transform = true;
  Strata logit_strata = StratifyCsf(scores, logit).ValueOrDie();

  // The logit variant must cut the squashed low region into several strata
  // where the raw variant collapses it.
  EXPECT_GT(logit_strata.num_strata(), raw_strata.num_strata());
  EXPECT_GE(logit_strata.num_strata(), 10u);
  EXPECT_TRUE(logit_strata.Validate().ok());
}

TEST(CsfTest, LogitTransformPreservesScoreOrdering) {
  Rng rng(31);
  std::vector<double> scores;
  for (int i = 0; i < 5000; ++i) scores.push_back(rng.NextDouble());
  Strata strata = StratifyCsf(scores, 20, /*scores_are_probabilities=*/true)
                      .ValueOrDie();
  for (size_t i = 0; i < scores.size(); i += 37) {
    for (size_t j = 0; j < scores.size(); j += 41) {
      if (scores[i] < scores[j]) {
        EXPECT_LE(strata.stratum_of(static_cast<int64_t>(i)),
                  strata.stratum_of(static_cast<int64_t>(j)));
      }
    }
  }
}

TEST(CsfTest, ProbabilityOverloadSelectsTransform) {
  // The convenience overload must behave identically to explicit options.
  Rng rng(37);
  std::vector<double> scores;
  for (int i = 0; i < 3000; ++i) scores.push_back(rng.NextDouble() * 0.01);
  Strata via_flag = StratifyCsf(scores, 15, true).ValueOrDie();
  CsfOptions options;
  options.target_strata = 15;
  options.logit_transform = true;
  Strata via_options = StratifyCsf(scores, options).ValueOrDie();
  ASSERT_EQ(via_flag.num_strata(), via_options.num_strata());
  for (int64_t i = 0; i < static_cast<int64_t>(scores.size()); ++i) {
    EXPECT_EQ(via_flag.stratum_of(i), via_options.stratum_of(i));
  }
}

/// FNV-1a over 32-bit values, folded in the order given.
uint64_t Fnv1a(uint64_t hash, int32_t value) {
  const uint32_t bits = static_cast<uint32_t>(value);
  for (int byte = 0; byte < 4; ++byte) {
    hash ^= (bits >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

struct StrataPin {
  size_t num_strata = 0;
  uint64_t stratum_of_hash = 0;
  uint64_t item_order_hash = 0;
};

/// CSF strata of a catalogue pool, stratified exactly as MakeMethodByName
/// does, reduced to two hashes: item -> stratum, and every stratum's items in
/// stored order (the order SampleItem indexes, so seeded draws depend on it).
StrataPin PinStrata(const datagen::ScenarioSpec& spec, size_t k) {
  const datagen::ScenarioPool pool = datagen::GenerateScenario(spec).ValueOrDie();
  const Strata strata = StratifyCsf(pool.scored.scores, k,
                                    pool.scored.scores_are_probabilities)
                            .ValueOrDie();
  StrataPin pin;
  pin.num_strata = strata.num_strata();
  pin.stratum_of_hash = 14695981039346656037ull;
  for (size_t i = 0; i < strata.num_items(); ++i) {
    pin.stratum_of_hash =
        Fnv1a(pin.stratum_of_hash, strata.stratum_of(static_cast<int64_t>(i)));
  }
  pin.item_order_hash = 14695981039346656037ull;
  for (size_t s = 0; s < strata.num_strata(); ++s) {
    for (int32_t item : strata.items(s)) {
      pin.item_order_hash = Fnv1a(pin.item_order_hash, item);
    }
  }
  return pin;
}

// Pinned strata of the two perfbench pools the sampler draws from. A change
// to binning or to the stored item order moves every seeded curve, so these
// must never move.
TEST(CsfTest, StripeF90K1000StrataArePinned) {
  datagen::ScenarioSpec spec =
      datagen::ScenarioByName("stripe-f90").ValueOrDie();
  spec.seed = 1;
  const StrataPin pin = PinStrata(spec, 1000);
  EXPECT_EQ(pin.num_strata, 1000u);
  EXPECT_EQ(pin.stratum_of_hash, 4184342641384269193ull);
  EXPECT_EQ(pin.item_order_hash, 7593267519287661873ull);
}

TEST(CsfTest, Imbalance1e3K30StrataArePinned) {
  const StrataPin pin =
      PinStrata(datagen::ScenarioByName("imbalance-1e3").ValueOrDie(), 30);
  EXPECT_EQ(pin.num_strata, 30u);
  EXPECT_EQ(pin.stratum_of_hash, 2743052671708432056ull);
  EXPECT_EQ(pin.item_order_hash, 13798640104045322129ull);
}

class CsfSweepTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CsfSweepTest, ValidAcrossStratumCounts) {
  const size_t target = GetParam();
  const std::vector<double> scores = ImbalancedScores(8000, 80, 23);
  Strata strata = StratifyCsf(scores, target).ValueOrDie();
  EXPECT_TRUE(strata.Validate().ok());
  EXPECT_LE(strata.num_strata(), target);
  // Weights are consistent with sizes.
  for (size_t k = 0; k < strata.num_strata(); ++k) {
    EXPECT_NEAR(strata.weight(k),
                static_cast<double>(strata.size(k)) / scores.size(), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(StratumCounts, CsfSweepTest,
                         ::testing::Values(1, 2, 5, 10, 30, 60, 120));

}  // namespace
}  // namespace oasis
