#ifndef OASIS_SAMPLING_TRAJECTORY_H_
#define OASIS_SAMPLING_TRAJECTORY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "oracle/remote_oracle.h"
#include "oracle/retry_policy.h"
#include "sampling/sampler.h"

namespace oasis {

/// Controls a budget-driven sampler run with checkpointed estimates.
struct TrajectoryOptions {
  /// Total label budget (distinct oracle charges).
  int64_t budget = 1000;
  /// Record an estimate snapshot every this many labels.
  int64_t checkpoint_every = 10;
  /// Iteration cap; 0 derives a generous default from the budget
  /// (DefaultMaxIterations). Guards against the (theoretically possible)
  /// case where resampling of cached items keeps a run from ever consuming
  /// fresh budget.
  int64_t max_iterations = 0;
};

/// The estimate history of one sampler run, indexed by label budget. This is
/// the primitive behind every error-vs-budget curve in the paper (Fig. 2/3).
struct Trajectory {
  /// Checkpoint label counts: checkpoint_every, 2*checkpoint_every, ...
  std::vector<int64_t> budgets;
  /// Estimate at each checkpoint (snapshot taken when the consumed budget
  /// first reached the checkpoint).
  std::vector<EstimateSnapshot> snapshots;
  /// Budget consumed when F first became defined; -1 when it never did.
  int64_t first_defined_budget = -1;
  /// Sampling iterations the run performed in total.
  int64_t total_iterations = 0;
  /// Labels charged to the budget by the run.
  int64_t labels_consumed = 0;
  /// True when the run hit max_iterations before exhausting the budget
  /// (trailing checkpoints are filled with the final estimate).
  bool truncated = false;

  /// True when the sampler's oracle was a RemoteOracle (possibly wrapped
  /// inside retry/fault decorators — the stack is walked): the three per-
  /// checkpoint cost series below are populated (same length as budgets),
  /// measuring this run's cumulative remote activity at each checkpoint —
  /// the x-axes of cost-vs-error curves (docs/ORACLES.md).
  bool has_remote_stats = false;
  /// Cumulative simulated round trips at each checkpoint.
  std::vector<int64_t> remote_round_trips;
  /// Cumulative simulated latency (seconds) at each checkpoint.
  std::vector<double> remote_seconds;
  /// Cumulative monetary label cost at each checkpoint.
  std::vector<double> remote_cost;

  /// True when the sampler's oracle stack was topped by a RetryingOracle:
  /// the per-checkpoint recovery series below are populated (same length as
  /// budgets), charting this run's cumulative retry activity — the CSV's
  /// retries/give_ups columns (docs/FAULT_MODEL.md).
  bool has_fault_stats = false;
  /// Cumulative retry attempts (beyond each call's first) at each checkpoint.
  std::vector<int64_t> oracle_retries;
  /// Cumulative gave-up oracle calls at each checkpoint.
  std::vector<int64_t> oracle_give_ups;

  /// True when the sampler exposes a DegeneracyMonitor: `ess` is populated
  /// (same length as budgets) with the Kish effective sample size at each
  /// checkpoint.
  bool has_degeneracy_stats = false;
  /// Effective sample size of the importance weights at each checkpoint.
  std::vector<double> ess;
};

/// Most checkpoints one trajectory may record (budget / checkpoint_every):
/// the grid is allocated when a run starts, so this caps what one config
/// file or start_session request can make the process allocate.
inline constexpr int64_t kMaxCheckpoints = 10000;

/// The checkpoint grid checkpoint_every, 2 * checkpoint_every, ..., up to
/// `budget` — for the batch runner, the session server and the apps alike.
/// InvalidArgument unless budget >= 1, checkpoint_every is in [1, budget]
/// and the grid has at most kMaxCheckpoints entries (checked before
/// allocating).
Result<std::vector<int64_t>> CheckpointGrid(int64_t budget,
                                            int64_t checkpoint_every);

/// The derived iteration cap of a run against `budget` labels:
/// 50 * budget + 100000, saturated at INT64_MAX so no budget can overflow
/// it. Shared by TrajectoryCursor and TraceOasisConvergence.
int64_t DefaultMaxIterations(int64_t budget);

/// One sampler run against a label budget, resumable between batches: the
/// loop state lives here, not in locals. RunTrajectory runs a cursor to the
/// end; a service session advances one by label quota. A paused and resumed
/// run therefore makes the same StepBatch calls (so the same oracle
/// attempts, RNG draws and estimates) as an uninterrupted one.
///
/// The loop steps singly until F is first defined, so first_defined_budget
/// is exact (F then stays defined: the estimator's denominator only grows).
/// After that each batch is sized to the label deficit to the next
/// checkpoint and capped by the remaining iteration allowance. A step
/// charges at most one label, so a batch never jumps past a checkpoint and
/// max_iterations fires where a per-step loop's would.
class TrajectoryCursor {
 public:
  /// Validates `options`, builds the grid and baselines the oracle stack's
  /// counters; the budget counts labels charged to `sampler` from here on.
  /// `sampler` must outlive the cursor.
  static Result<TrajectoryCursor> Create(Sampler& sampler,
                                         const TrajectoryOptions& options);

  /// Runs batches until this call has charged `label_quota` labels (<= 0: to
  /// the end), the budget is spent or the iteration cap fires. The quota is
  /// checked only between batches, so the call may overshoot it by up to
  /// checkpoint_every labels. A failed batch records nothing, so the cursor
  /// can be advanced again. No-op once done().
  Status Advance(int64_t label_quota);

  /// Whether the run finished (budget spent or truncated); every checkpoint
  /// of a finished trajectory is filled.
  bool done() const { return done_; }

  /// The trajectory so far: every checkpoint reached, counters as of the
  /// last completed batch.
  const Trajectory& trajectory() const& { return out_; }
  /// Moves the trajectory out of a cursor that is no longer needed.
  Trajectory trajectory() && { return std::move(out_); }

 private:
  explicit TrajectoryCursor(Sampler* sampler) : sampler_(sampler) {}

  /// Appends `snap` and the stack's counters at the next checkpoint.
  void RecordCheckpoint(const EstimateSnapshot& snap);

  Sampler* sampler_;
  int64_t budget_ = 0;
  int64_t max_iterations_ = 0;
  int64_t start_labels_ = 0;
  /// Oracle layers found in the sampler's stack (nullptr when absent) and
  /// their counters at creation, so reused oracles chart each run from zero.
  const RemoteOracle* remote_ = nullptr;
  RemoteOracleStats remote_start_;
  const RetryingOracle* retrying_ = nullptr;
  RetryStats retry_start_;
  const DegeneracyMonitor* monitor_ = nullptr;
  bool f_defined_seen_ = false;
  bool done_ = false;
  Trajectory out_;
};

/// Runs `sampler` until the label budget is exhausted (or the iteration cap
/// fires), recording estimates at each checkpoint.
Result<Trajectory> RunTrajectory(Sampler& sampler, const TrajectoryOptions& options);

}  // namespace oasis

#endif  // OASIS_SAMPLING_TRAJECTORY_H_
