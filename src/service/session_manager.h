#ifndef OASIS_SERVICE_SESSION_MANAGER_H_
#define OASIS_SERVICE_SESSION_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/scenario.h"
#include "experiments/runner.h"
#include "oracle/shared_label_store.h"
#include "service/protocol.h"
#include "service/session.h"

namespace oasis {
namespace service {

/// Controls of one SessionManager (the server side of docs/SERVICE.md).
struct SessionManagerOptions {
  /// Worker threads for asynchronous label requests; 0 = hardware
  /// concurrency. Per-session results are bit-identical for every value —
  /// sessions never share mutable state, so the pool only changes scheduling.
  int num_threads = 0;
};

/// Hosts many concurrent evaluation sessions in one long-lived process.
///
/// Each session owns its sampler, RNG stream, oracle decorator stack and
/// label cache; sessions over the same scenario share one immutable backend
/// (generated pool + base oracle + stratification cache) and, when they opt
/// in, one SharedLabelStore. Asynchronous label requests multiplex onto one
/// ThreadPool; a per-session mutex serialises each session's advances, so
/// arbitrarily many sessions progress in parallel while any single session
/// stays strictly sequential (the determinism contract of EvalSession).
///
/// All public methods are thread-safe. Errors never tear the server down:
/// Handle() maps every failure to an ErrorReply, and a session whose advance
/// failed (e.g. an oracle outage without retries) parks the error, which
/// every later request against that session returns — siblings are
/// unaffected (tested in tests/session_server_test.cc's chaos leg).
class SessionManager {
 public:
  /// Starts the worker pool; sessions are created on demand by Start().
  explicit SessionManager(const SessionManagerOptions& options = {});
  /// Drains queued advances, then joins the pool.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;             ///< Non-copyable.
  SessionManager& operator=(const SessionManager&) = delete;  ///< Non-copyable.

  /// Serves one protocol request. Never fails as a call: every error becomes
  /// an ErrorReply response.
  Response Handle(const Request& request);

  // Typed equivalents of the protocol (Handle dispatches onto these).

  /// Creates a session; generates the scenario backend on first use.
  Result<SessionStarted> Start(const SessionSpec& spec);
  /// Advances a session by at least `labels` charged labels, synchronously
  /// (waits for any queued advances on the session first).
  Result<LabelArrived> AdvanceSync(int64_t session, int64_t labels);
  /// Queues the advance on the pool and returns immediately.
  Result<LabelsEnqueued> AdvanceAsync(int64_t session, int64_t labels);
  /// Current estimate (settles queued advances first).
  Result<EstimateReply> Estimate(int64_t session);
  /// Checkpoint trajectory so far (settles queued advances first).
  Result<CheckpointAck> Checkpoint(int64_t session);
  /// Settles, reports the final state, and frees the session.
  Result<SessionClosed> Close(int64_t session);

  /// Number of currently open sessions.
  int64_t ActiveSessions() const;

 private:
  /// Shared immutable per-scenario state: the generated pool, its oracle,
  /// a method cache (stratification is the expensive part), and the
  /// cross-session label store. Backends are created on first StartSession
  /// for a scenario and live for the manager's lifetime.
  struct Backend {
    /// The generated known-truth pool (pure function of the scenario spec).
    datagen::ScenarioPool pool;
    /// The scenario's base oracle over `pool`.
    std::unique_ptr<Oracle> oracle;
    /// Created lazily on the first sharing session; RemoteOracle gates
    /// engagement on the oracle being deterministic and RNG-free.
    std::unique_ptr<SharedLabelStore> store;
    /// MethodSpec per "method/strata" key (shared Strata inside; for OASIS
    /// also the run's shared OasisSetup).
    std::unordered_map<std::string, experiments::MethodSpec> methods;
  };

  /// One hosted session plus its concurrency state. The entry mutex
  /// serialises advances; `pending` holds queued (wait = false) advances.
  /// Entries are shared_ptr so a queued task survives a concurrent Close.
  struct Entry {
    /// Serialises all advances on this session.
    std::mutex mu;
    /// The hosted session (sampler + stack + forked RNG stream).
    std::unique_ptr<EvalSession> session;
    /// Queued asynchronous advances not yet settled.
    std::vector<ThreadPool::TaskHandle> pending;
    /// First failure from any advance; sticky — later requests return it.
    Status failed;
    /// Whether the completed-sessions counter already saw this session.
    bool completion_counted = false;
  };

  /// Returns the backend for `scenario`, generating it on first use.
  /// Called under mu_.
  Result<Backend*> GetBackendLocked(const std::string& scenario);
  /// Returns the method spec for (method, strata) on `backend`, building and
  /// caching it on first use. Called under mu_.
  Result<const experiments::MethodSpec*> GetMethodLocked(Backend* backend,
                                                         const SessionSpec& spec);
  /// Looks up a session entry by id.
  Result<std::shared_ptr<Entry>> FindEntry(int64_t session) const;
  /// Waits out every queued advance of `entry`. Must NOT be called while
  /// holding entry->mu (TaskHandle::Wait may execute the task inline, and
  /// the task locks entry->mu).
  void Settle(const std::shared_ptr<Entry>& entry);
  /// Runs one advance under the entry lock, folding failures into
  /// entry->failed and keeping the telemetry counters. Returns the
  /// post-advance report (the LabelArrived payload).
  Result<LabelArrived> AdvanceLocked(const std::shared_ptr<Entry>& entry,
                                     int64_t labels);

  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Backend>> backends_;
  std::unordered_map<int64_t, std::shared_ptr<Entry>> sessions_;
  int64_t next_id_ = 1;
  ThreadPool pool_;
};

}  // namespace service
}  // namespace oasis

#endif  // OASIS_SERVICE_SESSION_MANAGER_H_
