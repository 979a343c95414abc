#include "sampling/trajectory.h"

#include <algorithm>
#include <limits>
#include <string>

#include "stats/degeneracy.h"
#include "telemetry/telemetry.h"

namespace oasis {

Result<std::vector<int64_t>> CheckpointGrid(int64_t budget,
                                            int64_t checkpoint_every) {
  if (budget <= 0) {
    return Status::InvalidArgument("CheckpointGrid: budget must be positive");
  }
  if (checkpoint_every <= 0 || checkpoint_every > budget) {
    return Status::InvalidArgument(
        "CheckpointGrid: checkpoint_every must lie in [1, budget]");
  }
  if (budget / checkpoint_every > kMaxCheckpoints) {
    return Status::InvalidArgument(
        "CheckpointGrid: budget / checkpoint_every must not exceed " +
        std::to_string(kMaxCheckpoints) + " checkpoints");
  }
  // Sized by division and filled by addition, so no step lands past
  // `budget` and no int64 input can overflow.
  std::vector<int64_t> grid(static_cast<size_t>(budget / checkpoint_every));
  int64_t b = 0;
  for (int64_t& checkpoint : grid) {
    b += checkpoint_every;
    checkpoint = b;
  }
  return grid;
}

int64_t DefaultMaxIterations(int64_t budget) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  return budget <= (kMax - 100000) / 50 ? 50 * budget + 100000 : kMax;
}

Result<TrajectoryCursor> TrajectoryCursor::Create(
    Sampler& sampler, const TrajectoryOptions& options) {
  TrajectoryCursor cursor(&sampler);
  Trajectory& out = cursor.out_;
  OASIS_ASSIGN_OR_RETURN(
      out.budgets, CheckpointGrid(options.budget, options.checkpoint_every));
  cursor.budget_ = options.budget;
  cursor.max_iterations_ = options.max_iterations > 0
                              ? options.max_iterations
                              : DefaultMaxIterations(options.budget);
  cursor.start_labels_ = sampler.labels_consumed();

  // Cost-model capture: when the labels flow through a RemoteOracle —
  // directly or wrapped inside retry/fault decorators — chart its cumulative
  // round trips / simulated latency / monetary cost alongside every estimate
  // checkpoint.
  cursor.remote_ = FindRemoteOracle(&sampler.labels().oracle());
  if (cursor.remote_ != nullptr) {
    out.has_remote_stats = true;
    cursor.remote_start_ = cursor.remote_->stats();
  }
  // Recovery capture: with a RetryingOracle on top of the stack, chart its
  // cumulative retries and give-ups per checkpoint.
  cursor.retrying_ =
      dynamic_cast<const RetryingOracle*>(&sampler.labels().oracle());
  if (cursor.retrying_ != nullptr) {
    out.has_fault_stats = true;
    cursor.retry_start_ = cursor.retrying_->stats();
  }
  // Degeneracy capture: samplers with a weight-health monitor chart their
  // effective sample size per checkpoint.
  cursor.monitor_ = sampler.degeneracy_monitor();
  out.has_degeneracy_stats = cursor.monitor_ != nullptr;
  out.total_iterations = sampler.iterations();
  return cursor;
}

void TrajectoryCursor::RecordCheckpoint(const EstimateSnapshot& snap) {
  out_.snapshots.push_back(snap);
  if (remote_ != nullptr) {
    const RemoteOracleStats now = remote_->stats();
    out_.remote_round_trips.push_back(now.round_trips -
                                      remote_start_.round_trips);
    out_.remote_seconds.push_back(
        static_cast<double>(now.simulated_latency_ns -
                            remote_start_.simulated_latency_ns) *
        1e-9);
    out_.remote_cost.push_back(now.label_cost - remote_start_.label_cost);
  }
  if (retrying_ != nullptr) {
    const RetryStats now = retrying_->stats();
    out_.oracle_retries.push_back(now.retries - retry_start_.retries);
    out_.oracle_give_ups.push_back(now.give_ups - retry_start_.give_ups);
  }
  if (monitor_ != nullptr) out_.ess.push_back(monitor_->ess());
}

Status TrajectoryCursor::Advance(int64_t label_quota) {
  if (done_) return Status::OK();
  Sampler& sampler = *sampler_;
  const int64_t call_start = sampler.labels_consumed();
  while (sampler.labels_consumed() - start_labels_ < budget_) {
    if (label_quota > 0 &&
        sampler.labels_consumed() - call_start >= label_quota) {
      return Status::OK();
    }
    if (sampler.iterations() >= max_iterations_) {
      out_.truncated = true;
      break;
    }
    const size_t next = out_.snapshots.size();
    int64_t batch = 1;
    if (f_defined_seen_) {
      const int64_t consumed = sampler.labels_consumed() - start_labels_;
      const int64_t target =
          next < out_.budgets.size() ? out_.budgets[next] : budget_;
      batch = std::max<int64_t>(1, target - consumed);
      batch = std::min(batch, max_iterations_ - sampler.iterations());
    }
    OASIS_RETURN_NOT_OK(sampler.StepBatch(batch));
    const int64_t consumed = sampler.labels_consumed() - start_labels_;
    out_.labels_consumed = consumed;
    out_.total_iterations = sampler.iterations();
    const EstimateSnapshot snap = sampler.Estimate();
    if (!f_defined_seen_ && snap.f_defined) {
      f_defined_seen_ = true;
      out_.first_defined_budget = consumed;
    }
    while (out_.snapshots.size() < out_.budgets.size() &&
           consumed >= out_.budgets[out_.snapshots.size()]) {
      RecordCheckpoint(snap);
      if (OASIS_TELEMETRY_ON) {
        static telemetry::Counter& checkpoints =
            telemetry::DefaultRegistry().AddCounter(
                "oasis_runner_checkpoints_total",
                "Budget checkpoints reached across all trajectories.");
        checkpoints.Increment();
        if (monitor_ != nullptr) {
          static telemetry::Gauge& live_ess =
              telemetry::DefaultRegistry().AddGauge(
                  "oasis_runner_live_ess",
                  "Effective sample size at the most recent checkpoint "
                  "(last writer wins across repeats).");
          live_ess.Set(monitor_->ess());
        }
      }
    }
  }
  // Fill any remaining checkpoints (early stop) with the final estimate so
  // every trajectory in an experiment has the same shape.
  const EstimateSnapshot final_snap = sampler.Estimate();
  while (out_.snapshots.size() < out_.budgets.size()) {
    RecordCheckpoint(final_snap);
  }
  done_ = true;
  return Status::OK();
}

Result<Trajectory> RunTrajectory(Sampler& sampler, const TrajectoryOptions& options) {
  OASIS_ASSIGN_OR_RETURN(TrajectoryCursor cursor,
                         TrajectoryCursor::Create(sampler, options));
  TELEMETRY_SPAN("run_trajectory", "sampler");
  OASIS_RETURN_NOT_OK(cursor.Advance(0));
  return std::move(cursor).trajectory();
}

}  // namespace oasis
