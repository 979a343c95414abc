// DegeneracyMonitor tests plus OASIS's graceful-degradation hook:
//  * the Kish ESS and max-weight-share math against closed forms;
//  * the min-observations gate, both trigger conditions, Reset, Summary;
//  * an ESS collapse on an adversarial pool boosts OASIS's epsilon floor
//    (and freezes the instrumental), after which stepping stays healthy —
//    on every step path, pinned bit-exactly at the degrade step and after;
//  * degrade mode with untrippable thresholds is bit-identical to the
//    default sampler — the monitor itself never perturbs the estimates;
//  * Create() rejects an out-of-range degraded_epsilon.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/oasis.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/label_cache.h"
#include "stats/degeneracy.h"
#include "strata/csf.h"
#include "tests/test_util.h"

namespace oasis {
namespace {

// --- DegeneracyMonitor unit behaviour -------------------------------------

TEST(DegeneracyMonitorTest, UniformWeightsAreHealthy) {
  DegeneracyMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.Observe(1.0);
  EXPECT_EQ(monitor.observations(), 100);
  EXPECT_DOUBLE_EQ(monitor.ess(), 100.0);
  EXPECT_DOUBLE_EQ(monitor.ess_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.01);
  EXPECT_FALSE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, KishEssMatchesClosedForm) {
  DegeneracyMonitor monitor;
  for (const double w : {1.0, 2.0, 3.0, 4.0}) monitor.Observe(w);
  // ESS = (1+2+3+4)^2 / (1+4+9+16) = 100 / 30.
  EXPECT_DOUBLE_EQ(monitor.ess(), 100.0 / 30.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.4);
  EXPECT_EQ(monitor.observations(), 4);
}

TEST(DegeneracyMonitorTest, ZeroHistoryReportsZeroEss) {
  DegeneracyMonitor monitor;
  EXPECT_DOUBLE_EQ(monitor.ess(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.ess_fraction(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.0);
  EXPECT_FALSE(monitor.degenerate());
  // All-zero weights (possible in principle) stay well-defined too.
  monitor.Observe(0.0);
  EXPECT_DOUBLE_EQ(monitor.ess(), 0.0);
  EXPECT_DOUBLE_EQ(monitor.max_weight_share(), 0.0);
}

TEST(DegeneracyMonitorTest, SingleDominantWeightTripsTailMonitor) {
  DegeneracyOptions options;
  options.min_observations = 50;
  DegeneracyMonitor monitor(options);
  for (int i = 0; i < 99; ++i) monitor.Observe(1e-6);
  monitor.Observe(1.0);  // One draw carries essentially all the mass.
  EXPECT_GT(monitor.max_weight_share(), options.tail_mass_ceiling);
  EXPECT_LT(monitor.ess(), 1.5);
  EXPECT_TRUE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, EssFloorTripsOnCollapse) {
  DegeneracyOptions options;
  options.min_observations = 10;
  options.ess_floor_fraction = 0.02;
  options.tail_mass_ceiling = 2.0;  // Tail monitor can never fire.
  DegeneracyMonitor monitor(options);
  // 1000 tiny weights and 10 huge ones: ESS ~ 10, fraction ~ 0.01 < 0.02.
  for (int i = 0; i < 1000; ++i) monitor.Observe(1e-8);
  for (int i = 0; i < 10; ++i) monitor.Observe(1.0);
  EXPECT_LT(monitor.ess_fraction(), options.ess_floor_fraction);
  EXPECT_TRUE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, MinObservationsGatesTheTrigger) {
  DegeneracyOptions options;
  options.min_observations = 64;
  DegeneracyMonitor monitor(options);
  monitor.Observe(1.0);
  for (int i = 0; i < 62; ++i) {
    monitor.Observe(1e-9);
    EXPECT_FALSE(monitor.degenerate()) << "observation " << i;
  }
  monitor.Observe(1e-9);  // 64th observation: the gate lifts.
  EXPECT_TRUE(monitor.degenerate());
}

TEST(DegeneracyMonitorTest, ResetForgetsHistoryKeepsThresholds) {
  DegeneracyOptions options;
  options.min_observations = 2;
  DegeneracyMonitor monitor(options);
  monitor.Observe(1.0);
  monitor.Observe(1e-9);
  ASSERT_TRUE(monitor.degenerate());
  monitor.Reset();
  EXPECT_EQ(monitor.observations(), 0);
  EXPECT_DOUBLE_EQ(monitor.ess(), 0.0);
  EXPECT_FALSE(monitor.degenerate());
  EXPECT_EQ(monitor.options().min_observations, 2);
}

TEST(DegeneracyMonitorTest, SummaryMentionsDegeneracy) {
  DegeneracyOptions options;
  options.min_observations = 2;
  DegeneracyMonitor monitor(options);
  monitor.Observe(1.0);
  EXPECT_NE(monitor.Summary().find("ess="), std::string::npos);
  EXPECT_EQ(monitor.Summary().find("degenerate"), std::string::npos);
  monitor.Observe(1e-9);
  monitor.Observe(1e-9);
  EXPECT_NE(monitor.Summary().find("degenerate"), std::string::npos)
      << monitor.Summary();
}

// --- OASIS graceful degradation -------------------------------------------

/// A pool built to starve the instrumental distribution: the classifier is
/// confidently right about a large easy mass, while the few true matches that
/// decide recall hide at rock-bottom scores — a stratum OASIS's optimal
/// instrumental gives vanishing mass, so the rare draw that lands there
/// carries an outsized importance weight.
struct AdversarialPool {
  ScoredPool scored;
  std::vector<uint8_t> truth;
};

AdversarialPool MakeAdversarialPool() {
  AdversarialPool pool;
  Rng rng(0xadbad);  // Deterministic score spread so CSF gets real bins.
  const int64_t kEasy = 1900;
  const int64_t kHidden = 100;
  for (int64_t i = 0; i < kEasy; ++i) {
    pool.scored.scores.push_back(0.90 + 0.09 * rng.NextDouble());
    pool.scored.predictions.push_back(1);
    pool.truth.push_back(1);
  }
  for (int64_t i = 0; i < kHidden; ++i) {
    pool.scored.scores.push_back(0.005 + 0.02 * rng.NextDouble());
    pool.scored.predictions.push_back(0);
    pool.truth.push_back(1);  // Hidden matches the classifier missed.
  }
  pool.scored.scores_are_probabilities = true;
  pool.scored.threshold = 0.5;
  return pool;
}

std::shared_ptr<const Strata> MakeStrata(const ScoredPool& pool, int bins) {
  return std::make_shared<const Strata>(
      StratifyCsf(pool.scores, bins, false).ValueOrDie());
}

/// Where the adversarial run below degrades, and where it stands after a
/// further StepBatch(500) in frozen mode, per step path (hexfloat, so the
/// comparison is bit-exact).
struct DegradeCase {
  OasisStepPath path;
  const char* name;
  int64_t degrade_iterations;
  int64_t degrade_labels;
  double degrade_f;
  int64_t frozen_labels;
  double frozen_f;
  double frozen_precision;
  double frozen_recall;
};

class OasisDegradePathTest : public ::testing::TestWithParam<DegradeCase> {};

TEST_P(OasisDegradePathTest, EssCollapseBoostsEpsilonFloorAndFreezes) {
  const DegradeCase& param = GetParam();
  const AdversarialPool pool = MakeAdversarialPool();
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);

  OasisOptions options;
  options.step_path = param.path;
  options.degrade_on_degeneracy = true;
  options.degraded_epsilon = 0.6;
  // Sensitive thresholds: the monitor's default floor is meant for
  // production; the test wants the trigger to fire within a short run.
  options.degeneracy.min_observations = 64;
  options.degeneracy.ess_floor_fraction = 0.9;
  options.degeneracy.tail_mass_ceiling = 2.0;  // Isolate the ESS trigger.
  auto sampler = OasisSampler::Create(&pool.scored, &labels,
                                      MakeStrata(pool.scored, 15), options,
                                      Rng(2024))
                     .ValueOrDie();
  EXPECT_FALSE(sampler->degraded());
  EXPECT_DOUBLE_EQ(sampler->active_epsilon(), options.epsilon);

  int steps = 0;
  while (!sampler->degraded() && steps < 4000) {
    ASSERT_TRUE(sampler->Step().ok());
    ++steps;
  }
  ASSERT_TRUE(sampler->degraded())
      << "never degraded; " << sampler->degeneracy_monitor()->Summary();
  EXPECT_DOUBLE_EQ(sampler->active_epsilon(), 0.6);
  EXPECT_GE(sampler->degeneracy_monitor()->observations(),
            options.degeneracy.min_observations);
  EXPECT_EQ(sampler->iterations(), param.degrade_iterations);
  EXPECT_EQ(sampler->labels_consumed(), param.degrade_labels);
  EXPECT_EQ(sampler->Estimate().f_alpha, param.degrade_f);

  // Degraded (frozen-instrumental) stepping keeps working: the sampler still
  // labels, the estimate stays defined and in range, diagnostics keep
  // flowing.
  const int64_t observations_before =
      sampler->degeneracy_monitor()->observations();
  const int64_t labels_before = sampler->labels_consumed();
  ASSERT_TRUE(sampler->StepBatch(500).ok());
  EXPECT_EQ(sampler->degeneracy_monitor()->observations(),
            observations_before + 500);
  EXPECT_GT(sampler->labels_consumed(), labels_before);
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_GE(snap.f_alpha, 0.0);
  EXPECT_LE(snap.f_alpha, 1.0);
  EXPECT_EQ(sampler->iterations(), param.degrade_iterations + 500);
  EXPECT_EQ(sampler->labels_consumed(), param.frozen_labels);
  EXPECT_EQ(snap.f_alpha, param.frozen_f);
  EXPECT_EQ(snap.precision, param.frozen_precision);
  EXPECT_EQ(snap.recall, param.frozen_recall);
}

INSTANTIATE_TEST_SUITE_P(
    StepPaths, OasisDegradePathTest,
    ::testing::Values(
        DegradeCase{OasisStepPath::kFused, "fused", 64, 63,
                    0x1.f5e196f517268p-1, 484, 0x1.f372426a7f5d7p-1, 0x1p+0,
                    0x1.e77e578f890e8p-1},
        DegradeCase{OasisStepPath::kAlias, "alias", 64, 62,
                    0x1.ea8cc0c386044p-1, 488, 0x1.ef52c585c31a9p-1, 0x1p+0,
                    0x1.dfb2e1bccc2e3p-1}),
    [](const ::testing::TestParamInfo<DegradeCase>& info) {
      return std::string(info.param.name);
    });

TEST(OasisDegradeTest, UntrippedDegradeModeIsBitIdenticalToDefault) {
  testutil::SyntheticPoolOptions pool_options;
  pool_options.size = 2000;
  pool_options.seed = 555;
  const testutil::SyntheticPool pool =
      testutil::MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  auto strata = MakeStrata(pool.scored, 20);

  OasisOptions armed;
  armed.degrade_on_degeneracy = true;
  armed.degeneracy.ess_floor_fraction = 0.0;  // Can never fire...
  armed.degeneracy.tail_mass_ceiling = 2.0;   // ...on either trigger.

  LabelCache labels_a(&oracle);
  LabelCache labels_b(&oracle);
  auto plain = OasisSampler::Create(&pool.scored, &labels_a, strata,
                                    OasisOptions{}, Rng(77))
                   .ValueOrDie();
  auto guarded =
      OasisSampler::Create(&pool.scored, &labels_b, strata, armed, Rng(77))
          .ValueOrDie();
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(plain->StepBatch(100).ok());
    ASSERT_TRUE(guarded->StepBatch(100).ok());
    const EstimateSnapshot a = plain->Estimate();
    const EstimateSnapshot b = guarded->Estimate();
    EXPECT_EQ(a.f_defined, b.f_defined);
    EXPECT_EQ(a.f_alpha, b.f_alpha);
    EXPECT_EQ(a.precision, b.precision);
    EXPECT_EQ(a.recall, b.recall);
  }
  EXPECT_FALSE(guarded->degraded());
  EXPECT_EQ(plain->labels_consumed(), guarded->labels_consumed());
  EXPECT_EQ(plain->iterations(), guarded->iterations());
  // The always-on monitor saw the identical weight stream on both.
  EXPECT_EQ(plain->degeneracy_monitor()->ess(),
            guarded->degeneracy_monitor()->ess());
}

TEST(OasisDegradeTest, CreateRejectsOutOfRangeDegradedEpsilon) {
  const AdversarialPool pool = MakeAdversarialPool();
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto strata = MakeStrata(pool.scored, 10);

  OasisOptions options;
  options.degrade_on_degeneracy = true;
  options.degraded_epsilon = 0.0;
  EXPECT_FALSE(
      OasisSampler::Create(&pool.scored, &labels, strata, options, Rng(1))
          .ok());
  options.degraded_epsilon = 1.5;
  EXPECT_FALSE(
      OasisSampler::Create(&pool.scored, &labels, strata, options, Rng(1))
          .ok());
  // In range is fine — and a degraded_epsilon of exactly 1 (uniform-over-
  // strata exploration) is allowed.
  options.degraded_epsilon = 1.0;
  EXPECT_TRUE(
      OasisSampler::Create(&pool.scored, &labels, strata, options, Rng(1))
          .ok());
}

}  // namespace
}  // namespace oasis
