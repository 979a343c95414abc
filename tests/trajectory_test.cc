#include "sampling/trajectory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/oasis.h"
#include "sampling/importance.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/oracle_stack.h"
#include "sampling/passive.h"
#include "test_util.h"

namespace oasis {
namespace {

using testutil::MakeSyntheticPool;
using testutil::SyntheticPool;
using testutil::SyntheticPoolOptions;

TEST(TrajectoryTest, RejectsBadOptions) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(1)).ValueOrDie();
  TrajectoryOptions bad;
  bad.budget = 0;
  EXPECT_FALSE(RunTrajectory(*sampler, bad).ok());
  bad.budget = 10;
  bad.checkpoint_every = 0;
  EXPECT_FALSE(RunTrajectory(*sampler, bad).ok());
}

TEST(TrajectoryTest, CheckpointShapeMatchesBudget) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(2)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 100;
  options.checkpoint_every = 10;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  ASSERT_EQ(trajectory.budgets.size(), 10u);
  ASSERT_EQ(trajectory.snapshots.size(), 10u);
  EXPECT_EQ(trajectory.budgets.front(), 10);
  EXPECT_EQ(trajectory.budgets.back(), 100);
  EXPECT_EQ(trajectory.labels_consumed, 100);
  EXPECT_FALSE(trajectory.truncated);
}

TEST(TrajectoryTest, BudgetConsumedExactly) {
  SyntheticPoolOptions opts;
  opts.size = 500;
  SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(3)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 200;
  options.checkpoint_every = 50;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  EXPECT_EQ(trajectory.labels_consumed, 200);
  EXPECT_EQ(labels.labels_consumed(), 200);
  // Iterations >= labels (resampled cached items don't consume budget).
  EXPECT_GE(trajectory.total_iterations, 200);
}

TEST(TrajectoryTest, TruncatesWhenBudgetUnreachable) {
  // Pool of 50 items but budget of 100: the run can never consume more than
  // 50 distinct labels and must stop at the iteration cap, filling trailing
  // checkpoints with the final estimate.
  SyntheticPoolOptions opts;
  opts.size = 50;
  opts.match_fraction = 0.3;
  SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(4)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 100;
  options.checkpoint_every = 10;
  options.max_iterations = 5000;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  EXPECT_TRUE(trajectory.truncated);
  EXPECT_EQ(trajectory.labels_consumed, 50);
  ASSERT_EQ(trajectory.snapshots.size(), 10u);
  // Trailing checkpoints hold the final (defined) estimate.
  EXPECT_TRUE(trajectory.snapshots.back().f_defined);
}

TEST(TrajectoryTest, FirstDefinedBudgetIsRecorded) {
  SyntheticPoolOptions opts;
  opts.size = 4000;
  opts.match_fraction = 0.01;
  opts.seed = 71;
  SyntheticPool pool = MakeSyntheticPool(opts);
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(5)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 1000;
  options.checkpoint_every = 100;
  Trajectory trajectory = RunTrajectory(*sampler, options).ValueOrDie();
  // With 1% positives the first positive typically needs dozens of draws.
  EXPECT_GT(trajectory.first_defined_budget, 0);
  EXPECT_LE(trajectory.first_defined_budget, 1000);
}

TEST(CheckpointGridTest, BuildsTheGridAndBoundsIt) {
  EXPECT_EQ(CheckpointGrid(100, 30).ValueOrDie(),
            (std::vector<int64_t>{30, 60, 90}));
  EXPECT_EQ(CheckpointGrid(7, 7).ValueOrDie(), (std::vector<int64_t>{7}));
  EXPECT_EQ(CheckpointGrid(kMaxCheckpoints, 1).ValueOrDie().size(),
            static_cast<size_t>(kMaxCheckpoints));
  // Near the top of int64 the grid is filled without stepping past budget.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> top = CheckpointGrid(max, max / 2).ValueOrDie();
  EXPECT_EQ(top, (std::vector<int64_t>{max / 2, 2 * (max / 2)}));

  for (const auto& [budget, every] :
       std::vector<std::pair<int64_t, int64_t>>{{0, 1},
                                                {10, 0},
                                                {10, -1},
                                                {5, 10},
                                                {kMaxCheckpoints + 1, 1},
                                                {1000000000000000, 1}}) {
    const Result<std::vector<int64_t>> grid = CheckpointGrid(budget, every);
    ASSERT_FALSE(grid.ok()) << budget << " / " << every;
    EXPECT_EQ(grid.status().code(), StatusCode::kInvalidArgument);
  }
}

// A budget of 1e15 with a checkpoint every label once made the grid loop spin
// for as long as the process lived; it is refused before the first step.
TEST(TrajectoryTest, HugeCheckpointGridIsRejectedWithoutStepping) {
  SyntheticPool pool = MakeSyntheticPool({});
  GroundTruthOracle oracle(pool.truth);
  LabelCache labels(&oracle);
  auto sampler =
      PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(6)).ValueOrDie();
  TrajectoryOptions options;
  options.budget = 1000000000000000;
  options.checkpoint_every = 1;
  const Result<Trajectory> run = RunTrajectory(*sampler, options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sampler->iterations(), 0);
}

// --- TrajectoryCursor: a sliced run is the uninterrupted run ---------------

void ExpectSnapshotsIdentical(const EstimateSnapshot& a,
                              const EstimateSnapshot& b) {
  EXPECT_EQ(a.f_alpha, b.f_alpha);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
  EXPECT_EQ(a.f_defined, b.f_defined);
  EXPECT_EQ(a.precision_defined, b.precision_defined);
  EXPECT_EQ(a.recall_defined, b.recall_defined);
}

void ExpectTrajectoriesIdentical(const Trajectory& a, const Trajectory& b) {
  EXPECT_EQ(a.budgets, b.budgets);
  ASSERT_EQ(a.snapshots.size(), b.snapshots.size());
  for (size_t i = 0; i < a.snapshots.size(); ++i) {
    SCOPED_TRACE(i);
    ExpectSnapshotsIdentical(a.snapshots[i], b.snapshots[i]);
  }
  EXPECT_EQ(a.first_defined_budget, b.first_defined_budget);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.labels_consumed, b.labels_consumed);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.has_remote_stats, b.has_remote_stats);
  EXPECT_EQ(a.remote_round_trips, b.remote_round_trips);
  EXPECT_EQ(a.remote_seconds, b.remote_seconds);
  EXPECT_EQ(a.remote_cost, b.remote_cost);
  EXPECT_EQ(a.has_fault_stats, b.has_fault_stats);
  EXPECT_EQ(a.oracle_retries, b.oracle_retries);
  EXPECT_EQ(a.oracle_give_ups, b.oracle_give_ups);
  EXPECT_EQ(a.has_degeneracy_stats, b.has_degeneracy_stats);
  EXPECT_EQ(a.ess, b.ess);
}

/// A sampler over its own faulty, remote, retrying oracle stack, so a
/// trajectory carries every series (remote cost, retries, ESS). Each call
/// builds an identical, fresh stack. OASIS queries one item per step; the
/// importance sampler batches its queries, so there the batch partitioning
/// decides the oracle attempts and with them the fault schedule.
struct FaultyRun {
  OracleStack stack;
  std::unique_ptr<LabelCache> labels;
  std::unique_ptr<Sampler> sampler;
};

FaultyRun MakeFaultyRun(const std::string& kind, const SyntheticPool& pool,
                        const Oracle& base) {
  FaultInjectionOptions faults;
  faults.transient_failure_rate = 0.2;
  faults.item_drop_rate = 0.1;
  faults.seed = 0x5eed;
  RemoteOracleOptions remote;
  remote.jitter_fraction = 0.25;
  RetryPolicy retry;
  retry.max_attempts = 12;
  FaultyRun run;
  run.stack = OracleStackBuilder()
                  .FaultInjection(faults)
                  .Remote(remote)
                  .Retry(retry)
                  .Build(&base)
                  .ValueOrDie();
  run.labels = std::make_unique<LabelCache>(&run.stack.top());
  if (kind == "oasis") {
    run.sampler = OasisSampler::CreateWithCsf(&pool.scored, run.labels.get(),
                                              20, OasisOptions{}, Rng(31))
                      .ValueOrDie();
  } else {
    run.sampler = ImportanceSampler::Create(&pool.scored, run.labels.get(),
                                            ImportanceOptions{}, Rng(31))
                      .ValueOrDie();
  }
  return run;
}

/// Drives a cursor to the end in Advance(quota) slices.
Trajectory RunSliced(Sampler& sampler, const TrajectoryOptions& options,
                     int64_t quota) {
  TrajectoryCursor cursor =
      TrajectoryCursor::Create(sampler, options).ValueOrDie();
  while (!cursor.done()) {
    const Status status = cursor.Advance(quota);
    if (!status.ok()) {
      ADD_FAILURE() << status.ToString();
      break;
    }
  }
  return std::move(cursor).trajectory();
}

TEST(TrajectoryCursorTest, SlicedAdvanceMatchesRunTrajectory) {
  SyntheticPoolOptions pool_options;
  pool_options.size = 3000;
  pool_options.seed = 17;
  const SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle base(pool.truth);
  TrajectoryOptions options;
  options.budget = 400;
  options.checkpoint_every = 40;

  for (const std::string kind : {"oasis", "importance"}) {
    SCOPED_TRACE(kind);
    FaultyRun reference_run = MakeFaultyRun(kind, pool, base);
    const Trajectory reference =
        RunTrajectory(*reference_run.sampler, options).ValueOrDie();
    ASSERT_TRUE(reference.has_remote_stats);
    ASSERT_TRUE(reference.has_fault_stats);
    ASSERT_TRUE(reference.has_degeneracy_stats);
    ASSERT_GT(reference.oracle_retries.back(), 0);
    EXPECT_EQ(reference.labels_consumed, options.budget);

    for (const int64_t quota : {int64_t{1}, int64_t{7},
                                options.checkpoint_every, int64_t{0}}) {
      SCOPED_TRACE(quota);
      FaultyRun run = MakeFaultyRun(kind, pool, base);
      ExpectTrajectoriesIdentical(RunSliced(*run.sampler, options, quota),
                                  reference);
    }
  }
}

TEST(TrajectoryCursorTest, SlicedAdvanceMatchesTruncatedRunTrajectory) {
  // A 50-item pool cannot serve a budget of 100: every run stops at the
  // iteration cap and fills its trailing checkpoints.
  SyntheticPoolOptions pool_options;
  pool_options.size = 50;
  pool_options.match_fraction = 0.3;
  const SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle oracle(pool.truth);
  TrajectoryOptions options;
  options.budget = 100;
  options.checkpoint_every = 10;
  options.max_iterations = 5000;

  LabelCache reference_labels(&oracle);
  auto reference_sampler =
      PassiveSampler::Create(&pool.scored, &reference_labels, 0.5, Rng(8))
          .ValueOrDie();
  const Trajectory reference =
      RunTrajectory(*reference_sampler, options).ValueOrDie();
  ASSERT_TRUE(reference.truncated);
  EXPECT_EQ(reference.total_iterations, options.max_iterations);

  for (const int64_t quota : {int64_t{1}, int64_t{7}, options.checkpoint_every,
                              int64_t{0}}) {
    SCOPED_TRACE(quota);
    LabelCache labels(&oracle);
    auto sampler =
        PassiveSampler::Create(&pool.scored, &labels, 0.5, Rng(8)).ValueOrDie();
    ExpectTrajectoriesIdentical(RunSliced(*sampler, options, quota), reference);
  }
}

TEST(TrajectoryCursorTest, FailedAdvanceLeavesTheCursorUnchanged) {
  // No retries and an outage after 60 oracle attempts: the run fails part
  // way, and every later attempt fails too.
  SyntheticPoolOptions pool_options;
  pool_options.size = 3000;
  const SyntheticPool pool = MakeSyntheticPool(pool_options);
  GroundTruthOracle base(pool.truth);
  FaultInjectionOptions outage;
  outage.outage_after_attempts = 60;
  const OracleStack stack =
      OracleStackBuilder().FaultInjection(outage).Build(&base).ValueOrDie();
  LabelCache labels(&stack.top());
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels, 20,
                                             OasisOptions{}, Rng(5))
                     .ValueOrDie();
  TrajectoryOptions options;
  options.budget = 400;
  options.checkpoint_every = 20;
  TrajectoryCursor cursor =
      TrajectoryCursor::Create(*sampler, options).ValueOrDie();

  ASSERT_EQ(cursor.Advance(0).code(), StatusCode::kUnavailable);
  const Trajectory before = cursor.trajectory();
  const int64_t iterations = sampler->iterations();
  ASSERT_GT(before.snapshots.size(), 0u);
  EXPECT_EQ(before.labels_consumed, sampler->labels_consumed());
  EXPECT_EQ(before.total_iterations, iterations);

  EXPECT_EQ(cursor.Advance(5).code(), StatusCode::kUnavailable);
  EXPECT_FALSE(cursor.done());
  ExpectTrajectoriesIdentical(cursor.trajectory(), before);
  EXPECT_EQ(sampler->iterations(), iterations);
}

}  // namespace
}  // namespace oasis
