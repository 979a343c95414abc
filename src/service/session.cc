#include "service/session.h"

#include <algorithm>
#include <string>

#include "common/random.h"

namespace oasis {
namespace service {

Result<std::unique_ptr<EvalSession>> EvalSession::Create(
    int64_t id, const SessionSpec& spec, const experiments::MethodSpec& method,
    const ScoredPool* pool, const Oracle* oracle, SharedLabelStore* store) {
  if (spec.budget <= 0) {
    return Status::InvalidArgument("EvalSession: budget must be positive");
  }
  if (spec.checkpoint_every <= 0 || spec.checkpoint_every > spec.budget) {
    return Status::InvalidArgument(
        "EvalSession: checkpoint_every must lie in [1, budget]");
  }
  // Both bounds run before anything is sized from the spec: a budget beyond
  // the pool can never be spent (every label is a distinct item), and the
  // checkpoint grid is allocated up front.
  if (spec.budget > pool->size()) {
    return Status::InvalidArgument(
        "EvalSession: budget must not exceed the pool size (" +
        std::to_string(pool->size()) + ")");
  }
  if (spec.budget / spec.checkpoint_every > kMaxCheckpoints) {
    return Status::InvalidArgument(
        "EvalSession: budget / checkpoint_every must not exceed " +
        std::to_string(kMaxCheckpoints) + " checkpoints");
  }
  OASIS_ASSIGN_OR_RETURN(
      OracleStack stack,
      OracleStackBuilder(spec.stack)
          .ShareLabels(spec.stack.share_labels ? store : nullptr)
          .ForkSeeds(spec.stream)
          .Build(oracle));
  std::unique_ptr<EvalSession> session(
      new EvalSession(id, spec, std::move(stack)));
  session->labels_ = std::make_unique<LabelCache>(&session->stack_.top());
  OASIS_ASSIGN_OR_RETURN(
      session->sampler_,
      method.factory(pool, session->labels_.get(),
                     Rng::Fork(spec.seed, spec.stream)));
  for (int64_t b = spec.checkpoint_every; b <= spec.budget;
       b += spec.checkpoint_every) {
    session->budgets_.push_back(b);
  }
  session->snapshots_.reserve(session->budgets_.size());
  // RunTrajectory's derived default cap (TrajectoryOptions.max_iterations=0).
  session->max_iterations_ = 50 * spec.budget + 100000;
  return session;
}

Result<int64_t> EvalSession::Advance(int64_t label_quota) {
  if (done_) return static_cast<int64_t>(0);
  const int64_t start = sampler_->labels_consumed();
  // The loop below is RunTrajectory's, verbatim — single-step until F first
  // defines, then batches sized to the next checkpoint deficit, capped by the
  // remaining iteration allowance — with ONE addition: the quota check
  // between batches. Keeping the batch partitioning identical is what makes
  // the oracle attempt sequence (and thus any fault schedule) independent of
  // how callers slice their label requests.
  while (sampler_->labels_consumed() < spec_.budget) {
    if (label_quota > 0 && sampler_->labels_consumed() - start >= label_quota) {
      return sampler_->labels_consumed() - start;
    }
    if (sampler_->iterations() >= max_iterations_) {
      truncated_ = true;
      break;
    }
    int64_t batch = 1;
    if (f_defined_seen_) {
      const int64_t consumed = sampler_->labels_consumed();
      const int64_t target = next_checkpoint_ < budgets_.size()
                                 ? budgets_[next_checkpoint_]
                                 : spec_.budget;
      batch = std::max<int64_t>(1, target - consumed);
      batch = std::min(batch, max_iterations_ - sampler_->iterations());
    }
    OASIS_RETURN_NOT_OK(sampler_->StepBatch(batch));
    const int64_t consumed = sampler_->labels_consumed();
    const EstimateSnapshot snap = sampler_->Estimate();
    if (!f_defined_seen_ && snap.f_defined) f_defined_seen_ = true;
    while (next_checkpoint_ < budgets_.size() &&
           consumed >= budgets_[next_checkpoint_]) {
      snapshots_.push_back(snap);
      ++next_checkpoint_;
    }
  }
  // Budget exhausted or iteration cap fired: finish with RunTrajectory's
  // trailing fill so every session's trajectory has the full grid shape.
  done_ = true;
  const EstimateSnapshot final_snap = sampler_->Estimate();
  while (next_checkpoint_ < budgets_.size()) {
    snapshots_.push_back(final_snap);
    ++next_checkpoint_;
  }
  return sampler_->labels_consumed() - start;
}

EstimateReport EvalSession::Report() const {
  EstimateReport report;
  report.session = id_;
  report.labels_consumed = sampler_->labels_consumed();
  report.iterations = sampler_->iterations();
  const EstimateSnapshot snap = sampler_->Estimate();
  report.f_alpha = snap.f_alpha;
  report.f_defined = snap.f_defined;
  report.precision = snap.precision;
  report.precision_defined = snap.precision_defined;
  report.recall = snap.recall;
  report.recall_defined = snap.recall_defined;
  report.done = done_;
  report.truncated = truncated_;
  return report;
}

CheckpointAck EvalSession::CheckpointData() const {
  CheckpointAck ack;
  ack.session = id_;
  ack.labels_consumed = sampler_->labels_consumed();
  ack.done = done_;
  ack.truncated = truncated_;
  ack.budgets.assign(budgets_.begin(),
                     budgets_.begin() + static_cast<int64_t>(next_checkpoint_));
  ack.f_alpha.reserve(snapshots_.size());
  ack.f_defined.reserve(snapshots_.size());
  for (const EstimateSnapshot& snap : snapshots_) {
    ack.f_alpha.push_back(snap.f_alpha);
    ack.f_defined.push_back(snap.f_defined ? 1 : 0);
  }
  return ack;
}

}  // namespace service
}  // namespace oasis
