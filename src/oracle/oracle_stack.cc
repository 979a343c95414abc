#include "oracle/oracle_stack.h"

#include "common/random.h"

namespace oasis {

namespace {

bool InClosedUnit(double value) { return value >= 0.0 && value <= 1.0; }
bool InHalfOpenUnit(double value) { return value >= 0.0 && value < 1.0; }

/// The decorators' constructor invariants, checked up front so that a spec
/// from a config file or a wire request is refused rather than reaching an
/// OASIS_CHECK that aborts the process. Every comparison fails on NaN.
Status ValidateSpec(const StackSpec& spec) {
  const auto& fault = spec.fault_injection;
  if (fault.has_value() && !(InClosedUnit(fault->transient_failure_rate) &&
                             InClosedUnit(fault->timeout_rate) &&
                             InClosedUnit(fault->item_drop_rate))) {
    return Status::InvalidArgument(
        "OracleStackBuilder: fault-injection rates must lie in [0, 1]");
  }
  const auto& remote = spec.remote;
  if (remote.has_value() &&
      !(remote->round_trip_seconds >= 0.0 && remote->per_item_seconds >= 0.0 &&
        remote->cost_per_label >= 0.0 &&
        remote->max_items_per_round_trip >= 0 &&
        InHalfOpenUnit(remote->jitter_fraction))) {
    return Status::InvalidArgument(
        "OracleStackBuilder: remote latencies, cost and trip size must be "
        "non-negative and jitter_fraction in [0, 1)");
  }
  const auto& retry = spec.retry;
  if (retry.has_value() &&
      !(retry->max_attempts >= 1 && retry->backoff_multiplier >= 1.0 &&
        retry->initial_backoff_seconds >= 0.0 &&
        retry->max_backoff_seconds >= 0.0 &&
        retry->per_attempt_timeout_seconds >= 0.0 &&
        retry->overall_deadline_seconds >= 0.0 &&
        InHalfOpenUnit(retry->jitter_fraction))) {
    return Status::InvalidArgument(
        "OracleStackBuilder: retry needs max_attempts >= 1, "
        "backoff_multiplier >= 1, non-negative times and jitter_fraction in "
        "[0, 1)");
  }
  return Status::OK();
}

}  // namespace

OracleStackBuilder& OracleStackBuilder::FaultInjection(
    const FaultInjectionOptions& options) {
  spec_.fault_injection = options;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::Remote(
    const RemoteOracleOptions& options) {
  spec_.remote = options;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::Retry(const RetryPolicy& policy) {
  spec_.retry = policy;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::ShareLabels(SharedLabelStore* store) {
  store_ = store;
  spec_.share_labels = store != nullptr;
  return *this;
}

OracleStackBuilder& OracleStackBuilder::ForkSeeds(uint64_t stream) {
  fork_stream_ = stream;
  return *this;
}

Result<OracleStack> OracleStackBuilder::Build(const Oracle* base) const {
  if (base == nullptr) {
    return Status::InvalidArgument("OracleStackBuilder: base oracle is null");
  }
  if (spec_.share_labels && !spec_.remote.has_value()) {
    return Status::InvalidArgument(
        "OracleStackBuilder: ShareLabels without a Remote layer (there is no "
        "wire to share)");
  }
  OASIS_RETURN_NOT_OK(ValidateSpec(spec_));
  OracleStack stack;
  stack.spec_ = spec_;
  stack.top_ = base;
  if (stack.spec_.fault_injection.has_value()) {
    if (fork_stream_.has_value()) {
      // Decorrelate fault schedules across sibling stacks while keeping each
      // one a pure function of (options, stream index) — the experiment
      // runner's historical per-repeat arrangement, preserved bit for bit.
      stack.spec_.fault_injection->seed =
          Rng::Fork(stack.spec_.fault_injection->seed, *fork_stream_)
              .NextUint64();
    }
    stack.faulty_ = std::make_unique<FaultInjectingOracle>(
        stack.top_, *stack.spec_.fault_injection);
    stack.top_ = stack.faulty_.get();
  }
  if (stack.spec_.remote.has_value()) {
    if (fork_stream_.has_value()) {
      // Same decorrelation for the latency jitter: identical trip contents in
      // two sibling stacks should not draw identical service times.
      stack.spec_.remote->jitter_seed =
          Rng::Fork(stack.spec_.remote->jitter_seed, *fork_stream_)
              .NextUint64();
    }
    stack.remote_ = std::make_unique<RemoteOracle>(
        stack.top_, *stack.spec_.remote,
        stack.spec_.share_labels ? store_ : nullptr);
    stack.top_ = stack.remote_.get();
  }
  if (stack.spec_.retry.has_value()) {
    stack.retrying_ =
        std::make_unique<RetryingOracle>(stack.top_, *stack.spec_.retry);
    stack.top_ = stack.retrying_.get();
  }
  return stack;
}

}  // namespace oasis
