#include <gtest/gtest.h>

#include <memory>

#include "core/oasis.h"
#include "datagen/benchmark_datasets.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"

namespace oasis {
namespace {

using datagen::BenchmarkPool;
using datagen::BuildBenchmarkPool;
using datagen::ClassifierKind;
using datagen::DatasetProfile;
using datagen::Domain;

/// A miniature end-to-end profile: entity generation -> corruption ->
/// featurisation -> SVM training -> pool scoring -> OASIS evaluation.
DatasetProfile MiniProfile() {
  DatasetProfile p;
  p.name = "integration-mini";
  p.domain = Domain::kECommerce;
  p.left_size = 200;
  p.right_size = 200;
  p.full_matches = 80;
  p.pool_size = 4000;
  p.pool_matches = 40;
  p.hard_negative_fraction = 0.1;
  p.train_matches = 50;
  p.train_nonmatches = 500;
  p.train_hard_fraction = 0.3;
  p.predicted_positive_factor = 0.9;
  return p;
}

TEST(IntegrationTest, FullPipelineThenOasisEstimatesTrueF) {
  BenchmarkPool pool =
      BuildBenchmarkPool(MiniProfile(), ClassifierKind::kLinearSvm,
                         /*calibrated=*/false, /*seed=*/2024)
          .ValueOrDie();
  ASSERT_TRUE(pool.true_measures.f_defined);
  ASSERT_GT(pool.true_measures.f_alpha, 0.0);

  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 20,
                                             OasisOptions{}, Rng(7))
                     .ValueOrDie();
  // 1000 of 4000 labels: the estimate should already be close.
  while (sampler->labels_consumed() < 1000) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  const EstimateSnapshot snap = sampler->Estimate();
  ASSERT_TRUE(snap.f_defined);
  EXPECT_NEAR(snap.f_alpha, pool.true_measures.f_alpha, 0.1);
}

TEST(IntegrationTest, OasisBeatsPassiveOnGeneratedPool) {
  BenchmarkPool pool =
      BuildBenchmarkPool(MiniProfile(), ClassifierKind::kLinearSvm, false, 2025)
          .ValueOrDie();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 20).ValueOrDie());

  experiments::RunnerOptions options;
  options.repeats = 12;
  options.trajectory.budget = 500;
  options.trajectory.checkpoint_every = 500;

  auto oasis_curve =
      experiments::RunErrorCurve(
          experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
              .ValueOrDie(),
          pool.scored, oracle, pool.true_measures.f_alpha, options)
          .ValueOrDie();
  auto passive_curve =
      experiments::RunErrorCurve(experiments::MakePassiveSpec(0.5), pool.scored,
                                 oracle, pool.true_measures.f_alpha, options)
          .ValueOrDie();
  ASSERT_EQ(oasis_curve.frac_defined.back(), 1.0);
  if (passive_curve.frac_defined.back() >= 0.9) {
    EXPECT_LT(oasis_curve.mean_abs_error.back(),
              passive_curve.mean_abs_error.back() * 1.5);
  }
}

TEST(IntegrationTest, CalibratedPipelineProducesProbabilityPool) {
  BenchmarkPool pool =
      BuildBenchmarkPool(MiniProfile(), ClassifierKind::kLogisticRegression,
                         /*calibrated=*/true, 2026)
          .ValueOrDie();
  EXPECT_TRUE(pool.scored.scores_are_probabilities);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 15,
                                             OasisOptions{}, Rng(9))
                     .ValueOrDie();
  while (sampler->labels_consumed() < 800) {
    ASSERT_TRUE(sampler->Step().ok());
  }
  EXPECT_NEAR(sampler->Estimate().f_alpha, pool.true_measures.f_alpha, 0.12);
}

TEST(IntegrationTest, EveryClassifierKindSurvivesEndToEnd) {
  // Figure 5's sweep at miniature scale: all five classifier families train,
  // score, and are evaluable.
  for (ClassifierKind kind :
       {ClassifierKind::kLinearSvm, ClassifierKind::kLogisticRegression,
        ClassifierKind::kMlp, ClassifierKind::kAdaBoost, ClassifierKind::kRbfSvm}) {
    BenchmarkPool pool =
        BuildBenchmarkPool(MiniProfile(), kind, false, 3000).ValueOrDie();
    ASSERT_TRUE(pool.scored.Validate().ok())
        << datagen::ClassifierKindName(kind);
    GroundTruthOracle oracle(pool.truth);
    LabelCache labels(&oracle);
    auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 15,
                                               OasisOptions{}, Rng(11))
                       .ValueOrDie();
    while (sampler->labels_consumed() < 600) {
      ASSERT_TRUE(sampler->Step().ok());
    }
    EXPECT_TRUE(sampler->Estimate().f_defined)
        << datagen::ClassifierKindName(kind);
  }
}

}  // namespace
}  // namespace oasis
