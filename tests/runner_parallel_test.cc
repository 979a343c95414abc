// Deterministic-parallelism contract of the experiment runner: the same
// options must produce bit-identical ErrorCurves for every thread count, and
// match the historical sequential runner exactly (golden values below were
// captured from the pre-ThreadPool implementation at num_threads=1).

#include "experiments/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"
#include "sampling/oracle_sampler.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace experiments {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

SyntheticPool GoldenPool() {
  SyntheticPoolOptions options;
  options.size = 2000;
  options.match_fraction = 0.05;
  options.seed = 101;
  return MakeSyntheticPool(options);
}

RunnerOptions GoldenOptions() {
  RunnerOptions options;
  options.repeats = 6;
  options.trajectory.budget = 200;
  options.trajectory.checkpoint_every = 50;
  options.base_seed = 20170626;
  return options;
}

/// Golden curve values captured from the pre-refactor sequential runner
/// (hexfloat, so the comparison is bit-exact). One row per checkpoint:
/// {mean_abs_error, stddev, mean_estimate, frac_defined}.
constexpr double kGoldenTrueF = 0x1.59cf516a98c2cp-1;
constexpr double kGoldenPassive[4][4] = {
    {0x1.529fd4a7f52ap-4, 0x1.a01a8c5358c3dp-4, 0x1.7fa94fea53fa9p-1, 0x1p+0},
    {0x1.da9da9da9daa3p-5, 0x1.30c73561d39f1p-4, 0x1.72ff2ff2ff2ffp-1, 0x1p+0},
    {0x1.9e8e883277c6ap-4, 0x1.e27a6ae161699p-4, 0x1.5d2f1185018ebp-1, 0x1p+0},
    {0x1.33abe95b0316ep-4, 0x1.90f5dd1ce1725p-4, 0x1.5b448cf430913p-1, 0x1p+0},
};
constexpr double kGoldenOasis10[4][4] = {
    {0x1.52771f829df52p-4, 0x1.cb0131656c4d6p-4, 0x1.4c7648d1b1294p-1, 0x1p+0},
    {0x1.71b8be9e6cea4p-4, 0x1.af67bed1307f1p-4, 0x1.57afb97611673p-1, 0x1p+0},
    {0x1.51c441d093feap-4, 0x1.88ad0c108a759p-4, 0x1.4e59f26818edbp-1, 0x1p+0},
    {0x1.78737a328fb3dp-5, 0x1.050df8dcbba92p-4, 0x1.50a266cf0b476p-1, 0x1p+0},
};

void ExpectCurveMatchesGolden(const ErrorCurve& curve,
                              const double golden[4][4]) {
  ASSERT_EQ(curve.budgets.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(curve.mean_abs_error[i], golden[i][0]) << "checkpoint " << i;
    EXPECT_EQ(curve.stddev[i], golden[i][1]) << "checkpoint " << i;
    EXPECT_EQ(curve.mean_estimate[i], golden[i][2]) << "checkpoint " << i;
    EXPECT_EQ(curve.frac_defined[i], golden[i][3]) << "checkpoint " << i;
  }
}

TEST(RunnerParallelTest, MatchesPreRefactorSequentialGolden) {
  SyntheticPool pool = GoldenPool();
  // Guards the golden values against synthetic-pool generation drift.
  ASSERT_EQ(pool.true_measures.f_alpha, kGoldenTrueF);
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  for (int threads : {1, 8}) {
    RunnerOptions options = GoldenOptions();
    options.num_threads = threads;
    ErrorCurve passive =
        RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle,
                      pool.true_measures.f_alpha, options)
            .ValueOrDie();
    ExpectCurveMatchesGolden(passive, kGoldenPassive);
    ErrorCurve oasis =
        RunErrorCurve(
            MakeOasisSpec(OasisOptions{}, pool.scored, strata).ValueOrDie(),
            pool.scored, oracle, pool.true_measures.f_alpha, options)
            .ValueOrDie();
    EXPECT_EQ(oasis.method, "OASIS-10");
    ExpectCurveMatchesGolden(oasis, kGoldenOasis10);
  }
}

/// Golden curves of the remaining samplers, same pool, options and row
/// layout as above. The NoisyOracle rows (flip rate 0.05) pin the samplers'
/// chunk-of-one interleave, where labelling consumes the sampler's RNG
/// between item draws.
constexpr double kGoldenStratified10[4][4] = {
    {0x1.3f79f8ceb7fa2p-4, 0x1.9c22bc2c54278p-4, 0x1.68c7263f5701p-1, 0x1p+0},
    {0x1.88b0306ed8e43p-4, 0x1.f9ca301c0975dp-4, 0x1.49ca9d1fe5a0ap-1, 0x1p+0},
    {0x1.43bf90ce91a4p-4, 0x1.7ed1588bd70efp-4, 0x1.5631f29bdc9ffp-1, 0x1p+0},
    {0x1.dff3dcd66d431p-5, 0x1.23fee5e203308p-4, 0x1.60d395a7e0ebfp-1, 0x1p+0},
};
constexpr double kGoldenImportanceAlias[4][4] = {
    {0x1.108f7819cdf36p-4, 0x1.73bed3208c4f5p-4, 0x1.529f9ecd2d5c5p-1, 0x1p+0},
    {0x1.ea27c055179f6p-5, 0x1.192489a736d9cp-4, 0x1.503268c39af0ep-1, 0x1p+0},
    {0x1.2728c526025e8p-5, 0x1.1fb29b61640f7p-5, 0x1.4e5cf29b5ea83p-1, 0x1p+0},
    {0x1.3e4e18d013ecbp-5, 0x1.68d92c75a5583p-5, 0x1.518782a99fa31p-1, 0x1p+0},
};
constexpr double kGoldenImportanceLinear[4][4] = {
    {0x1.43a635a0ea22p-3, 0x1.85052bc838c1bp-3, 0x1.36dfc9d936c08p-1, 0x1p+0},
    {0x1.048020dac78e8p-4, 0x1.0aec5e3f892e3p-4, 0x1.4574a7f7860ap-1, 0x1p+0},
    {0x1.a73e57226dbf6p-5, 0x1.868061a3e6c49p-5, 0x1.4430da5e76b1bp-1, 0x1p+0},
    {0x1.3e09738fe008dp-5, 0x1.6c31dfa9a568cp-5, 0x1.515a87d1217fbp-1, 0x1p+0},
};
constexpr double kGoldenOracleOptimal10[4][4] = {
    {0x1.3354a375c33p-5, 0x1.6325215cf413ap-5, 0x1.5b818db51e13cp-1, 0x1p+0},
    {0x1.75e295f06eabp-6, 0x1.d68c0e79e5927p-6, 0x1.5b469b78dac1p-1, 0x1p+0},
    {0x1.939de4124b92bp-6, 0x1.0b0dd00b8b7ep-5, 0x1.5bc41ef4afd32p-1, 0x1p+0},
    {0x1.03a2385a84965p-5, 0x1.4747917b327b9p-5, 0x1.5f6b2e1a65d5dp-1, 0x1p+0},
};
constexpr double kGoldenNoisyPassive[4][4] = {
    {0x1.f793d654ab1c4p-4, 0x1.318b39a8be253p-3, 0x1.41d41d41d41d4p-1, 0x1p+0},
    {0x1.3614008f9bb24p-4, 0x1.a682665260024p-5, 0x1.35ef18ab446ep-1, 0x1p+0},
    {0x1.acc86d92d255ep-4, 0x1.30b003d00e8c1p-4, 0x1.243643b83e78p-1, 0x1p+0},
    {0x1.a81dd80fb7fdbp-4, 0x1.f06a1834a5bfap-5, 0x1.24cb9668a1c31p-1, 0x1p+0},
};
constexpr double kGoldenNoisyStratified10[4][4] = {
    {0x1.b03f393d106b1p-3, 0x1.33cf15784de78p-3, 0x1.f993b60a41e05p-2, 0x1p+0},
    {0x1.635176a1fa11dp-3, 0x1.4eeda463ebeeep-4, 0x1.00faf3c21a3e5p-1, 0x1p+0},
    {0x1.2dbf2a80a626fp-3, 0x1.5dd220e5c92f2p-4, 0x1.0e5f86ca6f39p-1, 0x1p+0},
    {0x1.5ad363cc1187ep-3, 0x1.bc529368d0a2fp-5, 0x1.031a78779460cp-1, 0x1p+0},
};
constexpr double kGoldenNoisyImportanceAlias[4][4] = {
    {0x1.2834bec390f52p-3, 0x1.ce698c9709705p-4, 0x1.188ae657c1bf5p-1, 0x1p+0},
    {0x1.798dc59be605ap-3, 0x1.a6f863afd4d81p-5, 0x1.f6d7c0073e82bp-2, 0x1p+0},
    {0x1.53cf1ce3c98ccp-3, 0x1.e415893f4786fp-5, 0x1.04db8a31a65f9p-1, 0x1p+0},
    {0x1.557e16c398f4p-3, 0x1.ae0b139196d02p-5, 0x1.046fcbb9b285cp-1, 0x1p+0},
};
constexpr double kGoldenNoisyImportanceLinear[4][4] = {
    {0x1.1c3e24fb9c6b4p-2, 0x1.e69e6b57e7e0dp-4, 0x1.97607dd9951a4p-2, 0x1p+0},
    {0x1.910470ebc28aap-3, 0x1.b4c5a39398efep-4, 0x1.eb1c6a5f50403p-2, 0x1p+0},
    {0x1.7b40f28467334p-3, 0x1.75605ca4976e5p-4, 0x1.f5fe2992fdebep-2, 0x1p+0},
    {0x1.69f6309bc7e26p-3, 0x1.5549dc59a3351p-4, 0x1.fea38a874d945p-2, 0x1p+0},
};

MethodSpec MakeOracleOptimalSpec(std::shared_ptr<const Strata> strata,
                                 std::vector<uint8_t> truth) {
  return MethodSpec{
      "OracleOptimal",
      [strata = std::move(strata), truth = std::move(truth)](
          const ScoredPool* pool, LabelCache* labels,
          Rng rng) -> Result<std::unique_ptr<Sampler>> {
        OASIS_ASSIGN_OR_RETURN(
            std::unique_ptr<OracleOptimalSampler> sampler,
            OracleOptimalSampler::Create(pool, labels, strata, truth, 0.5,
                                         1e-3, rng));
        return std::unique_ptr<Sampler>(std::move(sampler));
      }};
}

TEST(RunnerParallelTest, EverySamplerMatchesGolden) {
  SyntheticPool pool = GoldenPool();
  ASSERT_EQ(pool.true_measures.f_alpha, kGoldenTrueF);
  GroundTruthOracle truth_oracle(pool.truth);
  NoisyOracle noisy_oracle =
      NoisyOracle::FromTruthWithFlipNoise(pool.truth, 0.05).ValueOrDie();
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());
  ImportanceOptions alias_options;
  ImportanceOptions linear_options;
  linear_options.backend = SamplingBackend::kLinearScan;

  struct Row {
    const char* label;
    MethodSpec spec;
    const Oracle* oracle;
    const double (*golden)[4];
  };
  const Row rows[] = {
      {"stratified", MakeStratifiedSpec(0.5, strata), &truth_oracle,
       kGoldenStratified10},
      {"importance-alias", MakeImportanceSpec(alias_options), &truth_oracle,
       kGoldenImportanceAlias},
      {"importance-linear", MakeImportanceSpec(linear_options), &truth_oracle,
       kGoldenImportanceLinear},
      {"oracle-optimal", MakeOracleOptimalSpec(strata, pool.truth),
       &truth_oracle, kGoldenOracleOptimal10},
      {"noisy-passive", MakePassiveSpec(0.5), &noisy_oracle,
       kGoldenNoisyPassive},
      {"noisy-stratified", MakeStratifiedSpec(0.5, strata), &noisy_oracle,
       kGoldenNoisyStratified10},
      {"noisy-importance-alias", MakeImportanceSpec(alias_options),
       &noisy_oracle, kGoldenNoisyImportanceAlias},
      {"noisy-importance-linear", MakeImportanceSpec(linear_options),
       &noisy_oracle, kGoldenNoisyImportanceLinear},
  };
  for (const Row& row : rows) {
    for (int threads : {1, 8}) {
      SCOPED_TRACE(std::string(row.label) + " threads=" +
                   std::to_string(threads));
      RunnerOptions options = GoldenOptions();
      options.num_threads = threads;
      ErrorCurve curve = RunErrorCurve(row.spec, pool.scored, *row.oracle,
                                       pool.true_measures.f_alpha, options)
                             .ValueOrDie();
      ExpectCurveMatchesGolden(curve, row.golden);
    }
  }
}

TEST(RunnerParallelTest, BitIdenticalAcrossThreadCounts) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 10).ValueOrDie());

  for (const MethodSpec& spec :
       {MakePassiveSpec(0.5),
        MakeOasisSpec(OasisOptions{}, pool.scored, strata).ValueOrDie()}) {
    RunnerOptions options;
    options.repeats = 12;
    options.trajectory.budget = 300;
    options.trajectory.checkpoint_every = 100;
    options.base_seed = 4242;

    options.num_threads = 1;
    ErrorCurve reference = RunErrorCurve(spec, pool.scored, oracle,
                                         pool.true_measures.f_alpha, options)
                               .ValueOrDie();
    for (int threads : {2, 8}) {
      options.num_threads = threads;
      ErrorCurve curve = RunErrorCurve(spec, pool.scored, oracle,
                                       pool.true_measures.f_alpha, options)
                             .ValueOrDie();
      ASSERT_EQ(curve.budgets, reference.budgets) << spec.name;
      for (size_t i = 0; i < reference.budgets.size(); ++i) {
        // EXPECT_EQ (not NEAR): bit-identical is the contract.
        EXPECT_EQ(curve.mean_abs_error[i], reference.mean_abs_error[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
        EXPECT_EQ(curve.stddev[i], reference.stddev[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
        EXPECT_EQ(curve.mean_estimate[i], reference.mean_estimate[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
        EXPECT_EQ(curve.frac_defined[i], reference.frac_defined[i])
            << spec.name << " threads=" << threads << " checkpoint " << i;
      }
    }
  }
}

TEST(RunnerParallelTest, ThrowingFactoryPropagatesToCaller) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  MethodSpec throwing;
  throwing.name = "Throwing";
  throwing.factory = [](const ScoredPool*, LabelCache*,
                        Rng) -> Result<std::unique_ptr<Sampler>> {
    throw std::runtime_error("factory exploded");
  };
  RunnerOptions options;
  options.repeats = 16;
  options.num_threads = 4;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  EXPECT_THROW(
      (void)RunErrorCurve(throwing, pool.scored, oracle, 0.5, options),
      std::runtime_error);
}

TEST(RunnerParallelTest, FailingFactoryReturnsErrorStatus) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  MethodSpec failing;
  failing.name = "Failing";
  failing.factory = [](const ScoredPool*, LabelCache*,
                       Rng) -> Result<std::unique_ptr<Sampler>> {
    return Status::Internal("no sampler for you");
  };
  RunnerOptions options;
  options.repeats = 16;
  options.num_threads = 4;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  auto result = RunErrorCurve(failing, pool.scored, oracle, 0.5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(result.status().message(), "no sampler for you");
}

TEST(RunnerParallelTest, CancellationMidRunReturnsCancelled) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  CancellationToken token;
  std::atomic<int> seen{0};
  RunnerOptions options;
  options.repeats = 64;
  options.num_threads = 2;
  options.trajectory.budget = 200;
  options.trajectory.checkpoint_every = 100;
  options.cancel = &token;
  options.progress = [&](int completed, int) {
    seen.fetch_add(1);
    if (completed >= 2) token.RequestCancel();
  };
  auto result =
      RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle, 0.5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // The run stopped early: nowhere near all repeats finished.
  EXPECT_LT(seen.load(), 64);
}

TEST(RunnerParallelTest, PreCancelledTokenReturnsCancelledImmediately) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  CancellationToken token;
  token.RequestCancel();
  RunnerOptions options;
  options.repeats = 8;
  options.cancel = &token;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  auto result =
      RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle, 0.5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(RunnerParallelTest, ProgressReportsEveryRepeatExactlyOnce) {
  SyntheticPool pool = GoldenPool();
  GroundTruthOracle oracle(pool.truth);
  std::mutex mutex;
  std::multiset<int> completions;
  int total_seen = 0;
  RunnerOptions options;
  options.repeats = 20;
  options.num_threads = 4;
  options.trajectory.budget = 100;
  options.trajectory.checkpoint_every = 50;
  options.progress = [&](int completed, int total) {
    std::lock_guard<std::mutex> lock(mutex);
    completions.insert(completed);
    total_seen = total;
  };
  ASSERT_TRUE(RunErrorCurve(MakePassiveSpec(0.5), pool.scored, oracle, 0.5,
                            options)
                  .ok());
  EXPECT_EQ(total_seen, 20);
  ASSERT_EQ(completions.size(), 20u);
  // The running count hits each value in [1, repeats] exactly once.
  int expected = 1;
  for (int value : completions) EXPECT_EQ(value, expected++);
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
