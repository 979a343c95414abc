#include "experiments/timing.h"

#include <gtest/gtest.h>

#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "test_util.h"

namespace oasis {
namespace experiments {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;

TEST(TimingTest, RejectsBadArguments) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  EXPECT_FALSE(
      TimeMethod(MakePassiveSpec(0.5), pool.scored, oracle, 0, 1, 1).ok());
  EXPECT_FALSE(
      TimeMethod(MakePassiveSpec(0.5), pool.scored, oracle, 10, 0, 1).ok());
}

TEST(TimingTest, ReportsConsistentFields) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  TimingResult result =
      TimeMethod(MakePassiveSpec(0.5), pool.scored, oracle, 2000, 3, 11)
          .ValueOrDie();
  EXPECT_EQ(result.method, "Passive");
  EXPECT_EQ(result.iterations_per_run, 2000);
  EXPECT_EQ(result.repeats, 3);
  EXPECT_GE(result.cpu_seconds_per_run, 0.0);
  EXPECT_NEAR(result.cpu_seconds_per_iteration,
              result.cpu_seconds_per_run / 2000.0, 1e-12);
}

TEST(TimingTest, OasisCostsMoreThanPassivePerIteration) {
  // OASIS recomputes a K-vector each step; passive does O(1) work. The CPU
  // ordering should reflect that (the Table 3 shape).
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 60).ValueOrDie());

  TimingResult passive =
      TimeMethod(MakePassiveSpec(0.5), pool.scored, oracle, 20000, 2, 13)
          .ValueOrDie();
  TimingResult oasis =
      TimeMethod(MakeOasisSpec(OasisOptions{}, pool.scored, strata).ValueOrDie(),
                 pool.scored, oracle, 20000, 2, 13)
          .ValueOrDie();
  EXPECT_GT(oasis.cpu_seconds_per_iteration,
            passive.cpu_seconds_per_iteration);
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
