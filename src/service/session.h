#ifndef OASIS_SERVICE_SESSION_H_
#define OASIS_SERVICE_SESSION_H_

#include <cstdint>
#include <memory>

#include "common/status.h"
#include "experiments/runner.h"
#include "oracle/label_cache.h"
#include "oracle/oracle.h"
#include "oracle/oracle_stack.h"
#include "oracle/shared_label_store.h"
#include "sampling/sampler.h"
#include "sampling/trajectory.h"
#include "service/protocol.h"

namespace oasis {
namespace service {

/// One live evaluation session: a sampler with its own RNG stream, its own
/// oracle decorator stack and label cache, advanced incrementally against a
/// shared immutable backend (pool + base oracle) through a TrajectoryCursor —
/// the same loop RunTrajectory runs to completion.
///
/// Determinism contract (tested in tests/session_server_test.cc): a session
/// over scenario backend B with (seed, stream) = (base_seed, r) produces, at
/// every checkpoint, estimates bit-identical to repeat r of
/// experiments::RunErrorCurve on B with base_seed — regardless of how callers
/// slice their label requests. This holds by construction: the cursor pauses
/// only between batches, never inside one, so the batch partitioning, and
/// with it the oracle attempt sequence and any fault/jitter schedule, is the
/// batch runner's.
///
/// Not thread-safe: the SessionManager serialises access per session.
class EvalSession {
 public:
  /// Builds a session over the shared backend. `pool` and `oracle` must
  /// outlive the session; `store` (nullable) is the backend's shared label
  /// store, engaged only when spec.stack.share_labels. The session's stack
  /// seeds are forked by spec.stream (OracleStackBuilder::ForkSeeds), its
  /// sampler runs on Rng::Fork(spec.seed, spec.stream) — both exactly the
  /// batch runner's per-repeat arrangement. Fails with InvalidArgument when
  /// the budget exceeds the pool size or CheckpointGrid refuses the grid.
  static Result<std::unique_ptr<EvalSession>> Create(
      int64_t id, const SessionSpec& spec,
      const experiments::MethodSpec& method, const ScoredPool* pool,
      const Oracle* oracle, SharedLabelStore* store);

  /// Advances the session by at least `label_quota` charged labels (<= 0:
  /// run to the full budget); see TrajectoryCursor::Advance. Returns the
  /// labels charged by THIS call. A failed advance (fallible oracle stack
  /// without retries) leaves the session at its pre-batch state and is
  /// sticky via the manager.
  Result<int64_t> Advance(int64_t label_quota);

  /// Current estimate state (protocol form).
  EstimateReport Report() const;

  /// Checkpointed trajectory so far (protocol form): estimates at every
  /// reached checkpoint; once done, the full grid with RunTrajectory's
  /// trailing fill applied.
  CheckpointAck CheckpointData() const;

  /// Whether the session finished (budget exhausted or truncated).
  bool done() const { return cursor_.done(); }

  /// Session id (assigned by the manager).
  int64_t id() const { return id_; }

 private:
  EvalSession(int64_t id, OracleStack stack,
              std::unique_ptr<LabelCache> labels,
              std::unique_ptr<Sampler> sampler, TrajectoryCursor cursor)
      : id_(id),
        stack_(std::move(stack)),
        labels_(std::move(labels)),
        sampler_(std::move(sampler)),
        cursor_(std::move(cursor)) {}

  const int64_t id_;
  /// Order matters: the cache points into the stack, the sampler into the
  /// cache, the cursor at the sampler; members destroy in reverse
  /// declaration order. Each pointee is heap-allocated, so moving the owners
  /// in keeps every address stable.
  OracleStack stack_;
  std::unique_ptr<LabelCache> labels_;
  std::unique_ptr<Sampler> sampler_;
  TrajectoryCursor cursor_;
};

}  // namespace service
}  // namespace oasis

#endif  // OASIS_SERVICE_SESSION_H_
