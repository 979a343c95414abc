#include "service/session.h"

#include <string>

#include "common/random.h"

namespace oasis {
namespace service {

Result<std::unique_ptr<EvalSession>> EvalSession::Create(
    int64_t id, const SessionSpec& spec, const experiments::MethodSpec& method,
    const ScoredPool* pool, const Oracle* oracle, SharedLabelStore* store) {
  // A budget beyond the pool can never be spent (every label is a distinct
  // item); refuse it before anything is built from the spec.
  if (spec.budget > pool->size()) {
    return Status::InvalidArgument(
        "EvalSession: budget must not exceed the pool size (" +
        std::to_string(pool->size()) + ")");
  }
  OASIS_ASSIGN_OR_RETURN(
      OracleStack stack,
      OracleStackBuilder(spec.stack)
          .ShareLabels(spec.stack.share_labels ? store : nullptr)
          .ForkSeeds(spec.stream)
          .Build(oracle));
  auto labels = std::make_unique<LabelCache>(&stack.top());
  OASIS_ASSIGN_OR_RETURN(
      std::unique_ptr<Sampler> sampler,
      method.factory(pool, labels.get(), Rng::Fork(spec.seed, spec.stream)));
  TrajectoryOptions options;
  options.budget = spec.budget;
  options.checkpoint_every = spec.checkpoint_every;
  OASIS_ASSIGN_OR_RETURN(TrajectoryCursor cursor,
                         TrajectoryCursor::Create(*sampler, options));
  return std::unique_ptr<EvalSession>(
      new EvalSession(id, std::move(stack), std::move(labels),
                      std::move(sampler), std::move(cursor)));
}

Result<int64_t> EvalSession::Advance(int64_t label_quota) {
  const int64_t start = sampler_->labels_consumed();
  OASIS_RETURN_NOT_OK(cursor_.Advance(label_quota));
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
  report.done = cursor_.done();
  report.truncated = cursor_.trajectory().truncated;
  return report;
}

CheckpointAck EvalSession::CheckpointData() const {
  const Trajectory& trajectory = cursor_.trajectory();
  CheckpointAck ack;
  ack.session = id_;
  ack.labels_consumed = sampler_->labels_consumed();
  ack.done = cursor_.done();
  ack.truncated = trajectory.truncated;
  ack.budgets.assign(trajectory.budgets.begin(),
                     trajectory.budgets.begin() +
                         static_cast<int64_t>(trajectory.snapshots.size()));
  ack.f_alpha.reserve(trajectory.snapshots.size());
  ack.f_defined.reserve(trajectory.snapshots.size());
  for (const EstimateSnapshot& snap : trajectory.snapshots) {
    ack.f_alpha.push_back(snap.f_alpha);
    ack.f_defined.push_back(snap.f_defined ? 1 : 0);
  }
  return ack;
}

}  // namespace service
}  // namespace oasis
