// OasisSetup: the per-run state every repeat's sampler shares.
//  * a sampler created from a shared set-up equals one built from scratch:
//    the Algorithm-2 guesses, lambda, posterior means, the instrumental, and
//    500 steps of estimates bit for bit (printed as hexfloat), at K = 1, 30
//    and 1000, on a no-positives pool, on the fused and alias paths — also
//    after other samplers from the same set-up have stepped;
//  * per-repeat Create refuses a foreign pool, a resized pool, an alpha
//    mismatch and null inputs with InvalidArgument; set-up creation refuses
//    mismatched strata;
//  * MakeMethodByName("oasis") refuses an invalid pool when the spec is built;
//  * RunErrorCurve over one shared set-up is bit-identical at 1 and 8
//    threads.

#include "core/oasis_setup.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/initialization.h"
#include "core/oasis.h"
#include "datagen/scenario.h"
#include "experiments/runner.h"
#include "experiments/scenario_run.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

std::string Hex(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

std::vector<std::string> Hex(const std::vector<double>& values) {
  std::vector<std::string> out;
  for (double v : values) out.push_back(Hex(v));
  return out;
}

/// Everything observable about a sampler after `steps` steps, as hexfloat:
/// the estimate after every step, then posterior means and v(t).
std::vector<std::string> Trace(OasisSampler& sampler, int steps) {
  std::vector<std::string> trace;
  for (int t = 0; t < steps; ++t) {
    EXPECT_TRUE(sampler.Step().ok());
    const EstimateSnapshot e = sampler.Estimate();
    trace.push_back(Hex(e.f_alpha) + " " + Hex(e.precision) + " " +
                    Hex(e.recall));
  }
  for (const std::string& s : Hex(sampler.PosteriorMeans())) trace.push_back(s);
  for (const std::string& s : Hex(sampler.CurrentInstrumental().ValueOrDie())) {
    trace.push_back(s);
  }
  return trace;
}

struct Case {
  std::string name;
  size_t target_strata;
  bool no_positives;
  bool stripe;  // the stripe-f90 catalogue pool (K = 1000 needs its size)
};

struct Fixture {
  ScoredPool pool;
  std::vector<uint8_t> truth;
  std::shared_ptr<const Strata> strata;
};

Fixture MakeFixture(const Case& c) {
  Fixture f;
  if (c.stripe) {
    datagen::ScenarioSpec spec =
        datagen::ScenarioByName("stripe-f90").ValueOrDie();
    spec.seed = 1;
    datagen::ScenarioPool pool = datagen::GenerateScenario(spec).ValueOrDie();
    f.pool = std::move(pool.scored);
    f.truth = std::move(pool.truth);
  } else {
    SyntheticPoolOptions options;
    options.size = 3000;
    options.seed = 91;
    if (c.no_positives) options.match_fraction = 0.0;
    SyntheticPool pool = MakeSyntheticPool(options);
    f.pool = std::move(pool.scored);
    f.truth = std::move(pool.truth);
    if (c.no_positives) {
      std::fill(f.pool.predictions.begin(), f.pool.predictions.end(), 0);
    }
  }
  f.strata = std::make_shared<const Strata>(
      StratifyCsf(f.pool.scores, c.target_strata,
                  f.pool.scores_are_probabilities)
          .ValueOrDie());
  return f;
}

class SharedSetupTest
    : public ::testing::TestWithParam<std::tuple<Case, OasisStepPath>> {};

TEST_P(SharedSetupTest, SamplerFromSharedSetupEqualsOneFromScratch) {
  const auto& [c, path] = GetParam();
  const Fixture f = MakeFixture(c);
  GroundTruthOracle oracle(f.truth);
  OasisOptions options;
  options.step_path = path;
  const std::shared_ptr<const OasisSetup> setup =
      OasisSetup::Create(&f.pool, f.strata, options.alpha).ValueOrDie();

  // Algorithm 2 as computed directly from the pool.
  const InitialEstimates init =
      InitializeFromScores(*f.strata, f.pool, options.alpha).ValueOrDie();
  EXPECT_EQ(Hex(setup->initial_f()), Hex(init.f_alpha));
  EXPECT_EQ(Hex(setup->lambda()), Hex(init.lambda));
  EXPECT_EQ(Hex(setup->initial_pi()), Hex(init.pi));

  // Samplers from the shared set-up step first, interleaved, so a sampler
  // that wrote to shared state would perturb the next one.
  LabelCache labels_a(&oracle);
  LabelCache labels_b(&oracle);
  auto a = OasisSampler::Create(setup, &f.pool, &labels_a, options, Rng(5))
               .ValueOrDie();
  auto b = OasisSampler::Create(setup, &f.pool, &labels_b, options, Rng(5))
               .ValueOrDie();
  EXPECT_EQ(&a->strata(), f.strata.get());
  for (int t = 0; t < 50; ++t) {
    ASSERT_TRUE(a->Step().ok());
    ASSERT_TRUE(b->Step().ok());
  }
  LabelCache labels_shared(&oracle);
  auto shared =
      OasisSampler::Create(setup, &f.pool, &labels_shared, options, Rng(9))
          .ValueOrDie();
  LabelCache labels_scratch(&oracle);
  auto scratch = OasisSampler::Create(&f.pool, &labels_scratch, f.strata,
                                      options, Rng(9))
                     .ValueOrDie();

  EXPECT_EQ(Hex(shared->initial_f()), Hex(scratch->initial_f()));
  EXPECT_EQ(Hex(shared->initial_f()), Hex(init.f_alpha));
  EXPECT_EQ(Hex(shared->lambda()), Hex(scratch->lambda()));
  EXPECT_EQ(Hex(shared->PosteriorMeans()), Hex(scratch->PosteriorMeans()));
  EXPECT_EQ(Hex(shared->CurrentInstrumental().ValueOrDie()),
            Hex(scratch->CurrentInstrumental().ValueOrDie()));
  EXPECT_EQ(shared->options().prior_strength,
            scratch->options().prior_strength);
  EXPECT_EQ(Trace(*shared, 500), Trace(*scratch, 500));
  // The earlier samplers still match each other after all of that.
  EXPECT_EQ(Trace(*a, 20), Trace(*b, 20));
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SharedSetupTest,
    ::testing::Combine(
        ::testing::Values(Case{"K1", 1, false, false},
                          Case{"K30", 30, false, false},
                          Case{"K30NoPositives", 30, true, false},
                          Case{"K1000Stripe", 1000, false, true}),
        ::testing::Values(OasisStepPath::kFused, OasisStepPath::kAlias)),
    [](const auto& info) {
      return std::get<0>(info.param).name +
             (std::get<1>(info.param) == OasisStepPath::kAlias ? "Alias"
                                                               : "Fused");
    });

class SetupRefusalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticPoolOptions options;
    options.size = 500;
    pool_ = MakeSyntheticPool(options);
    oracle_ = std::make_unique<GroundTruthOracle>(pool_.truth);
    strata_ = std::make_shared<const Strata>(
        StratifyCsf(pool_.scored.scores, 10).ValueOrDie());
    setup_ = OasisSetup::Create(&pool_.scored, strata_, 0.5).ValueOrDie();
  }

  static void ExpectInvalid(const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  }

  SyntheticPool pool_;
  std::unique_ptr<GroundTruthOracle> oracle_;
  std::shared_ptr<const Strata> strata_;
  std::shared_ptr<const OasisSetup> setup_;
};

TEST_F(SetupRefusalTest, CreateRefusesAnEqualCopyOfThePool) {
  const ScoredPool copy = pool_.scored;  // same size and contents
  LabelCache labels(oracle_.get());
  ExpectInvalid(OasisSampler::Create(setup_, &copy, &labels, OasisOptions{},
                                     Rng(1))
                    .status());
}

TEST_F(SetupRefusalTest, CreateRefusesAPoolResizedAfterSetup) {
  LabelCache labels(oracle_.get());
  pool_.scored.scores.push_back(0.0);
  pool_.scored.predictions.push_back(0);
  ExpectInvalid(OasisSampler::Create(setup_, &pool_.scored, &labels,
                                     OasisOptions{}, Rng(1))
                    .status());
}

TEST_F(SetupRefusalTest, CreateRefusesAnAlphaMismatch) {
  LabelCache labels(oracle_.get());
  OasisOptions options;
  options.alpha = 0.25;
  ExpectInvalid(
      OasisSampler::Create(setup_, &pool_.scored, &labels, options, Rng(1))
          .status());
  options.alpha = std::numeric_limits<double>::quiet_NaN();
  ExpectInvalid(
      OasisSampler::Create(setup_, &pool_.scored, &labels, options, Rng(1))
          .status());
}

TEST_F(SetupRefusalTest, CreateRefusesNullInputs) {
  LabelCache labels(oracle_.get());
  ExpectInvalid(OasisSampler::Create(std::shared_ptr<const OasisSetup>(),
                                     &pool_.scored, &labels, OasisOptions{},
                                     Rng(1))
                    .status());
  ExpectInvalid(
      OasisSampler::Create(setup_, nullptr, &labels, OasisOptions{}, Rng(1))
          .status());
  ExpectInvalid(OasisSampler::Create(setup_, &pool_.scored, nullptr,
                                     OasisOptions{}, Rng(1))
                    .status());
  ExpectInvalid(OasisSetup::Create(nullptr, strata_, 0.5).status());
  ExpectInvalid(OasisSetup::Create(&pool_.scored, nullptr, 0.5).status());
}

TEST_F(SetupRefusalTest, CreateStillRefusesBadOptions) {
  LabelCache labels(oracle_.get());
  OasisOptions options;
  options.epsilon = 0.0;
  ExpectInvalid(
      OasisSampler::Create(setup_, &pool_.scored, &labels, options, Rng(1))
          .status());
}

TEST_F(SetupRefusalTest, SetupRefusesStrataOfAnotherPoolAndBadAlpha) {
  SyntheticPoolOptions options;
  options.size = 400;
  const SyntheticPool other = MakeSyntheticPool(options);
  const auto other_strata = std::make_shared<const Strata>(
      StratifyCsf(other.scored.scores, 10).ValueOrDie());
  ExpectInvalid(OasisSetup::Create(&pool_.scored, other_strata, 0.5).status());
  ExpectInvalid(OasisSetup::Create(&pool_.scored, strata_, 1.5).status());
  ExpectInvalid(
      OasisSetup::Create(&pool_.scored, strata_,
                         std::numeric_limits<double>::quiet_NaN())
          .status());
}

TEST(MakeMethodByNameTest, OasisRefusesAnInvalidPoolAtSpecBuildTime) {
  SyntheticPoolOptions options;
  options.size = 300;
  SyntheticPool pool = MakeSyntheticPool(options);
  ScoredPool nan_score = pool.scored;
  nan_score.scores[17] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(experiments::MakeMethodByName("oasis", 0.5, nan_score, 10).ok());
  ScoredPool bad_prediction = pool.scored;
  bad_prediction.predictions[17] = 2;
  const Result<experiments::MethodSpec> spec =
      experiments::MakeMethodByName("oasis", 0.5, bad_prediction, 10);
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(experiments::MakeMethodByName("oasis", 0.5, pool.scored, 10).ok());
}

TEST(MakeOasisSpecTest, FactoryRefusesAPoolOtherThanTheSpecs) {
  SyntheticPoolOptions options;
  options.size = 300;
  SyntheticPool pool = MakeSyntheticPool(options);
  GroundTruthOracle oracle(pool.truth);
  const auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());
  const experiments::MethodSpec spec =
      experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
          .ValueOrDie();
  LabelCache labels(&oracle);
  EXPECT_TRUE(spec.factory(&pool.scored, &labels, Rng(1)).ok());
  const ScoredPool copy = pool.scored;
  EXPECT_EQ(spec.factory(&copy, &labels, Rng(1)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SharedSetupRunnerTest, EightThreadsMatchOneThreadBitForBit) {
  SyntheticPoolOptions pool_options;
  pool_options.size = 4000;
  pool_options.seed = 404;
  SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  const auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 30).ValueOrDie());
  const experiments::MethodSpec spec =
      experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
          .ValueOrDie();
  experiments::RunnerOptions options;
  options.repeats = 24;
  options.trajectory.budget = 400;
  options.trajectory.checkpoint_every = 100;
  options.base_seed = 77;
  options.num_threads = 1;
  const experiments::ErrorCurve one =
      experiments::RunErrorCurve(spec, pool.scored, oracle,
                                 pool.true_measures.f_alpha, options)
          .ValueOrDie();
  options.num_threads = 8;
  const experiments::ErrorCurve eight =
      experiments::RunErrorCurve(spec, pool.scored, oracle,
                                 pool.true_measures.f_alpha, options)
          .ValueOrDie();
  EXPECT_EQ(Hex(one.mean_abs_error), Hex(eight.mean_abs_error));
  EXPECT_EQ(Hex(one.mean_estimate), Hex(eight.mean_estimate));
  EXPECT_EQ(Hex(one.stddev), Hex(eight.stddev));
  EXPECT_EQ(Hex(one.final_estimates), Hex(eight.final_estimates));
}

}  // namespace
}  // namespace oasis
