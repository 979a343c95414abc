#include "experiments/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>

#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace experiments {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

SyntheticPool MediumPool() {
  SyntheticPoolOptions options;
  options.size = 2000;
  options.match_fraction = 0.05;
  options.seed = 101;
  return MakeSyntheticPool(options);
}

TEST(RunnerTest, RejectsBadOptions) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 0;
  EXPECT_FALSE(RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                             pool.true_measures.f_alpha, options)
                   .ok());
  options.repeats = 2;
  options.trajectory.budget = 5;
  options.trajectory.checkpoint_every = 10;  // No checkpoint fits.
  EXPECT_FALSE(RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                             pool.true_measures.f_alpha, options)
                   .ok());
}

// `oasis_run` on a config with budget = 1e15 and checkpoint_every = 1 once
// spun in the checkpoint-counting loop; the grid bound refuses it before any
// sampler is built.
TEST(RunnerTest, HugeCheckpointGridIsRejectedWithoutStepping) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  MethodSpec method = MakePassiveSpec(0.5);
  std::atomic<int> samplers_built{0};
  const SamplerFactory build = method.factory;
  method.factory = [&](const ScoredPool* p, LabelCache* labels, Rng rng) {
    ++samplers_built;
    return build(p, labels, rng);
  };
  RunnerOptions options;
  options.repeats = 2;
  options.trajectory.budget = 1000000000000000;
  options.trajectory.checkpoint_every = 1;
  const Result<ErrorCurve> curve = RunErrorCurve(
      method, pool.scored, oracle, pool.true_measures.f_alpha, options);
  ASSERT_FALSE(curve.ok());
  EXPECT_EQ(curve.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(samplers_built.load(), 0);
}

// A deterministic oracle charges each distinct item once, so a budget above
// the pool can never be spent. Budget 1e12 with checkpoint_every 1e9 passes
// the grid bound, and each repeat used to step until 50 x budget iterations.
TEST(RunnerTest, DeterministicBudgetAbovePoolIsRejectedWithoutStepping) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  MethodSpec method = MakePassiveSpec(0.5);
  std::atomic<int> samplers_built{0};
  const SamplerFactory build = method.factory;
  method.factory = [&](const ScoredPool* p, LabelCache* labels, Rng rng) {
    ++samplers_built;
    return build(p, labels, rng);
  };
  RunnerOptions options;
  options.repeats = 2;
  const int64_t over_pool = pool.scored.size() + 1;
  for (const int64_t budget : {over_pool, int64_t{1000000000000}}) {
    options.trajectory.budget = budget;
    options.trajectory.checkpoint_every = budget / 1000;
    const Result<ErrorCurve> curve = RunErrorCurve(
        method, pool.scored, oracle, pool.true_measures.f_alpha, options);
    ASSERT_FALSE(curve.ok()) << budget;
    EXPECT_EQ(curve.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(samplers_built.load(), 0);
}

// `oasis_run` with repeats = 2000000000 and checkpoint_every = 1 aborted with
// std::bad_alloc while sizing the per-repeat result slots; the cell cap
// refuses it before any slot or sampler exists.
TEST(RunnerTest, RepeatCheckpointCellsAboveTheCapAreRejectedWithoutStepping) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  MethodSpec method = MakePassiveSpec(0.5);
  std::atomic<int> samplers_built{0};
  const SamplerFactory build = method.factory;
  method.factory = [&](const ScoredPool* p, LabelCache* labels, Rng rng) {
    ++samplers_built;
    return build(p, labels, rng);
  };
  RunnerOptions options;
  options.repeats = 2000000000;
  options.trajectory.budget = 1000;
  options.trajectory.checkpoint_every = 1;
  const Result<ErrorCurve> curve = RunErrorCurve(
      method, pool.scored, oracle, pool.true_measures.f_alpha, options);
  ASSERT_FALSE(curve.ok());
  EXPECT_EQ(curve.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(samplers_built.load(), 0);
}

TEST(RunnerTest, RunCellCapIsExactAndOverflowFree) {
  EXPECT_TRUE(CheckRunCells("t", kMaxRunCells, 1).ok());
  EXPECT_TRUE(CheckRunCells("t", 1, kMaxRunCells).ok());
  EXPECT_TRUE(CheckRunCells("t", kMaxRunCells / 100, 100).ok());
  EXPECT_FALSE(CheckRunCells("t", kMaxRunCells + 1, 1).ok());
  EXPECT_FALSE(CheckRunCells("t", kMaxRunCells / 100 + 1, 100).ok());
  EXPECT_FALSE(CheckRunCells("t", 0, 1).ok());
  const int64_t max = std::numeric_limits<int64_t>::max();
  EXPECT_FALSE(CheckRunCells("t", max, max).ok());
}

// stack_retry_* ints are read through the same range-checked getter.
TEST(RunnerTest, StackIntKeysOutsideIntAreRefused) {
  for (const char* key :
       {"stack_retry_max_attempts", "stack_retry_breaker_threshold"}) {
    const ConfigMap config =
        ConfigMap::Parse(std::string("stack_retry = true\n") + key +
                         " = 4294967297\n")
            .ValueOrDie();
    EXPECT_EQ(StackSpecFromConfig(config).status().code(),
              StatusCode::kInvalidArgument)
        << key;
  }
}

// A noisy oracle charges every query, repeats included, so its budget may
// exceed the pool and the run still completes.
TEST(RunnerTest, NoisyOracleBudgetMayExceedThePool) {
  SyntheticPool pool = MediumPool();
  const NoisyOracle oracle =
      NoisyOracle::FromTruthWithFlipNoise(pool.truth, 0.05).ValueOrDie();
  ASSERT_FALSE(oracle.deterministic());
  RunnerOptions options;
  options.repeats = 2;
  options.trajectory.budget = pool.scored.size() + 500;
  options.trajectory.checkpoint_every = 500;
  const Result<ErrorCurve> curve =
      RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                    pool.true_measures.f_alpha, options);
  ASSERT_TRUE(curve.ok()) << curve.status().ToString();
  EXPECT_EQ(curve.ValueOrDie().budgets.back(), options.trajectory.budget);
  EXPECT_EQ(curve.ValueOrDie().frac_defined.back(), 1.0);
}

TEST(RunnerTest, CurveShapeMatchesOptions) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 8;
  options.trajectory.budget = 200;
  options.trajectory.checkpoint_every = 50;
  ErrorCurve curve = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                   pool.true_measures.f_alpha, options)
                         .ValueOrDie();
  EXPECT_EQ(curve.method, "Passive");
  EXPECT_EQ(curve.repeats, 8);
  ASSERT_EQ(curve.budgets.size(), 4u);
  EXPECT_EQ(curve.budgets.back(), 200);
  EXPECT_EQ(curve.mean_abs_error.size(), 4u);
  EXPECT_EQ(curve.stddev.size(), 4u);
  EXPECT_EQ(curve.frac_defined.size(), 4u);
}

TEST(RunnerTest, ErrorShrinksWithBudget) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 24;
  options.trajectory.budget = 1500;
  options.trajectory.checkpoint_every = 100;
  ErrorCurve curve = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                   pool.true_measures.f_alpha, options)
                         .ValueOrDie();
  // Early error (first defined checkpoint) should exceed the final error.
  ASSERT_GT(curve.mean_abs_error.size(), 2u);
  double first_defined = -1.0;
  for (size_t i = 0; i < curve.budgets.size(); ++i) {
    if (curve.frac_defined[i] >= 0.95) {
      first_defined = curve.mean_abs_error[i];
      break;
    }
  }
  ASSERT_GE(first_defined, 0.0);
  EXPECT_LT(curve.mean_abs_error.back(), first_defined + 1e-12);
}

TEST(RunnerTest, DeterministicAcrossThreadCounts) {
  // Same base seed must yield identical aggregates whether run on one
  // thread or many (per-repeat RNG streams are scheduling-independent).
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 10;
  options.trajectory.budget = 300;
  options.trajectory.checkpoint_every = 100;
  options.base_seed = 777;

  options.num_threads = 1;
  ErrorCurve serial = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                    pool.true_measures.f_alpha, options)
                          .ValueOrDie();
  options.num_threads = 4;
  ErrorCurve parallel = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                      pool.true_measures.f_alpha, options)
                            .ValueOrDie();
  ASSERT_EQ(serial.budgets.size(), parallel.budgets.size());
  for (size_t i = 0; i < serial.budgets.size(); ++i) {
    EXPECT_NEAR(serial.mean_abs_error[i], parallel.mean_abs_error[i], 1e-12);
    EXPECT_NEAR(serial.stddev[i], parallel.stddev[i], 1e-12);
  }
}

TEST(RunnerTest, OasisSpecOutperformsPassiveOnImbalancedPool) {
  SyntheticPoolOptions pool_options;
  pool_options.size = 6000;
  pool_options.match_fraction = 0.01;
  pool_options.seed = 103;
  SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);

  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 20).ValueOrDie());

  RunnerOptions options;
  options.repeats = 16;
  options.trajectory.budget = 400;
  options.trajectory.checkpoint_every = 400;

  ErrorCurve oasis =
      RunErrorCurve(
          MakeOasisSpec(OasisOptions{}, pool.scored, strata).ValueOrDie(),
          pool.scored, oracle, pool.true_measures.f_alpha, options)
          .ValueOrDie();
  ErrorCurve passive = RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                                     pool.true_measures.f_alpha, options)
                           .ValueOrDie();
  ASSERT_EQ(oasis.frac_defined.back(), 1.0);
  // Passive may not even have defined estimates everywhere; when it does,
  // OASIS error should be smaller at this budget under 1:100 imbalance.
  if (passive.frac_defined.back() > 0.9) {
    EXPECT_LT(oasis.mean_abs_error.back(), passive.mean_abs_error.back());
  }
}

TEST(RunnerTest, AllFourMethodSpecsRun) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  RunnerOptions options;
  options.repeats = 3;
  options.trajectory.budget = 150;
  options.trajectory.checkpoint_every = 150;

  for (const MethodSpec& spec :
       {MakePassiveSpec(0.5), MakeStratifiedSpec(0.5, strata),
        MakeImportanceSpec(ImportanceOptions{}),
        MakeOasisSpec(OasisOptions{}, pool.scored, strata).ValueOrDie()}) {
    ErrorCurve curve = RunErrorCurve(spec, pool.scored, oracle,
                                     pool.true_measures.f_alpha, options)
                           .ValueOrDie();
    EXPECT_EQ(curve.repeats, 3) << spec.name;
  }
}

TEST(RunnerTest, FinalErrorSummary) {
  SyntheticPool pool = MediumPool();
  GroundTruthOracle oracle(pool.truth);
  RunnerOptions options;
  options.repeats = 12;
  options.trajectory.budget = 500;
  options.trajectory.checkpoint_every = 100;
  FinalErrorSummary summary =
      RunFinalError(MakePassiveSpec(0.5), pool.scored, oracle,
                    pool.true_measures.f_alpha, options)
          .ValueOrDie();
  EXPECT_EQ(summary.method, "Passive");
  EXPECT_EQ(summary.repeats, 12);
  EXPECT_GE(summary.mean_abs_error, 0.0);
  EXPECT_GE(summary.ci_half_width, 0.0);
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
