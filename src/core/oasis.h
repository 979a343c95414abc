#ifndef OASIS_CORE_OASIS_H_
#define OASIS_CORE_OASIS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/alias_table.h"
#include "core/ais_estimator.h"
#include "core/bayesian_model.h"
#include "core/oasis_setup.h"
#include "sampling/sampler.h"
#include "stats/degeneracy.h"
#include "strata/csf.h"
#include "strata/strata.h"

namespace oasis {

/// How OasisSampler runs lines 3-5 of Algorithm 3: choose v(t) and draw a
/// stratum k with its probability v_k. The rest of the iteration (the item
/// within the stratum, weight omega_k / v_k, oracle query, posterior and AIS
/// updates) is one shared tail whatever the path. kFused draws, bit for bit,
/// the stratum that Rng::NextDiscreteLinear would draw from
/// CurrentInstrumental() with the same Rng state (tests/step_batch_test.cc);
/// kAlias samples from the same instrumental distribution up to a
/// configurable staleness tolerance but consumes the RNG differently, so it
/// is equivalent in distribution rather than bit-for-bit
/// (tests/alias_step_path_test.cc verifies both the distributional match and
/// estimator consistency).
enum class OasisStepPath {
  /// Zero-allocation O(K) refresh in two passes over precomputed per-stratum
  /// constants and an incrementally-maintained posterior-mean cache, then an
  /// O(log K) binary-search draw over the running sums: the exact v(t) of
  /// Algorithm 3 on every step. The default.
  kFused,
  /// O(1) draws: a Walker/Vose alias table over the unnormalised v* masses,
  /// rebuilt in place (O(K), zero allocation) only when the instrumental has
  /// drifted — either F-hat moved more than alias_drift_tol since the table
  /// was built, or the accumulated L1 posterior-mass drift across observed
  /// strata exceeds that same fraction of the table's total mass. Between
  /// rebuilds the table is a frozen snapshot; the dual drift gate bounds its
  /// staleness. Estimates stay consistent at ANY tolerance (importance
  /// weights use the mixture actually sampled, full support via the epsilon
  /// mix); the tolerance only prices staleness of the instrumental
  /// (variance). Distribution-equivalent to kFused, not bit-equal
  /// (tests/alias_step_path_test.cc). The path to prefer when K is large
  /// (roughly K >= 1000; see docs/ARCHITECTURE.md).
  kAlias,
};

/// Tunables of Algorithm 3. Defaults follow the paper's experiments
/// (Sec. 6.3: alpha = 1/2, epsilon = 1e-3, eta = 2K).
struct OasisOptions {
  /// F-measure weight: 1 = precision, 0 = recall, 1/2 = balanced F.
  double alpha = 0.5;
  /// Greediness parameter of the epsilon-greedy instrumental mix (Eqn. 12);
  /// must lie in (0, 1] for the consistency guarantee to hold.
  double epsilon = 1e-3;
  /// Prior strength eta > 0; 0 selects the paper's experimental setting
  /// eta = 2K at construction time.
  double prior_strength = 0.0;
  /// Remark-4 retroactive prior decay.
  bool decay_prior = true;
  /// Hot-path selection; see OasisStepPath.
  OasisStepPath step_path = OasisStepPath::kFused;
  /// kAlias only: how far the alias snapshot may drift from the live
  /// instrumental before a full O(K) rebuild is forced. Gates both |F-hat|
  /// drift from the value the table was built with and the accumulated L1
  /// posterior-mass drift (as a fraction of the table's total mass). 0 means
  /// rebuild whenever anything changed at all (the exact v(t) at O(K) on
  /// almost every early step); larger values trade a bounded staleness of the
  /// instrumental for cheap steps. Estimates stay consistent for ANY
  /// tolerance because importance weights always use the distribution
  /// actually sampled from, which keeps full support via the epsilon mix —
  /// the tolerance only affects how close the instrumental is to the optimum
  /// (variance), never correctness. Must be finite and >= 0.
  double alias_drift_tol = 1e-2;
  /// Thresholds of the always-on importance-weight health monitor (see
  /// DegeneracyMonitor; diagnostics are collected regardless of
  /// degrade_on_degeneracy).
  DegeneracyOptions degeneracy;
  /// When true, a degenerate weight history (ESS collapse or one weight
  /// dominating the mass) flips the sampler into a degraded mode: the
  /// epsilon-greedy floor is boosted to degraded_epsilon and — when
  /// freeze_instrumental_on_degrade — the instrumental distribution is
  /// frozen at its current shape. Estimates remain consistent in either mode
  /// because every importance weight is computed against the distribution
  /// the draw ACTUALLY came from, which keeps full support through the
  /// (boosted) epsilon mix — degrading trades asymptotic variance for
  /// robustness, never correctness (see docs/FAULT_MODEL.md). Off by
  /// default; the default path is bit-identical with the monitor running.
  bool degrade_on_degeneracy = false;
  /// Epsilon floor used once degraded (must lie in (0, 1] when
  /// degrade_on_degeneracy; values below `epsilon` are clamped up to it).
  double degraded_epsilon = 0.5;
  /// Whether degrading also freezes the instrumental distribution (stops
  /// adapting v(t) to the — evidently untrustworthy — posterior; the
  /// posterior itself keeps updating for diagnostics).
  bool freeze_instrumental_on_degrade = true;
};

/// OASIS — Optimal Asymptotic Sequential Importance Sampling (Algorithm 3).
///
/// Per iteration: recompute the epsilon-greedy stratified instrumental
/// distribution v(t) from the current Bayesian posterior and F estimate, draw
/// a stratum ~ v(t) and an item uniformly within it, query the oracle, update
/// the beta posterior (Eqn. 10) and fold the importance-weighted observation
/// (w_t = omega_k / v_k) into the AIS estimator (Eqn. 3).
///
/// Estimates of F_alpha, precision and recall are all consistent for their
/// population values (paper Theorem 3); see tests/oasis_test.cc for the
/// statistical verification.
class OasisSampler : public Sampler {
 public:
  /// Creates one sampler from a shared set-up in O(K): no pass over the pool.
  /// Refuses (InvalidArgument, before allocating anything) a null input, a
  /// `pool` other than the set-up's own object or of another size, an
  /// options.alpha other than the set-up's, and out-of-range options.
  /// `pool` and `labels` must outlive the sampler. Every repeat of a run
  /// creates its sampler this way from one set-up.
  static Result<std::unique_ptr<OasisSampler>> Create(
      std::shared_ptr<const OasisSetup> setup, const ScoredPool* pool,
      LabelCache* labels, const OasisOptions& options, Rng rng);

  /// Convenience: builds a one-off OasisSetup over `strata` (O(N)) and
  /// creates the sampler from it. `pool` and `labels` must outlive the
  /// sampler. Prefer one shared set-up when creating many samplers.
  static Result<std::unique_ptr<OasisSampler>> Create(
      const ScoredPool* pool, LabelCache* labels,
      std::shared_ptr<const Strata> strata, const OasisOptions& options, Rng rng);

  /// Convenience: stratifies the pool internally with CSF (Algorithm 1).
  static Result<std::unique_ptr<OasisSampler>> CreateWithCsf(
      const ScoredPool* pool, LabelCache* labels, size_t target_strata,
      const OasisOptions& options, Rng rng);

  /// Current F_alpha / precision / recall snapshot of the AIS estimator.
  EstimateSnapshot Estimate() const override;
  /// "OASIS-<K>" with K the realised stratum count.
  std::string name() const override;

  /// Streams every weighted observation (w_t, l_t, l-hat_t) to a consumer in
  /// addition to the built-in estimator — e.g. a MultiAlphaEstimator pricing
  /// the whole precision-recall trade-off from the same label stream, or a
  /// persistent audit log. Invoked after the internal update, on the calling
  /// thread.
  using Observer = std::function<void(double weight, bool label, bool prediction)>;
  void SetObserver(Observer observer) { observer_ = std::move(observer); }

  // --- Diagnostics (Figure 4) -------------------------------------------

  /// Current posterior means pi-hat(t).
  std::vector<double> PosteriorMeans() const { return model_.PosteriorMeans(); }

  /// Current epsilon-greedy instrumental distribution v(t) (normalised),
  /// recomputed from the live posterior and F estimate — the *ideal* v(t)
  /// every step path tracks.
  Result<std::vector<double>> CurrentInstrumental() const;

  /// kAlias only: the distribution the next alias draw would actually use,
  /// i.e. epsilon * omega + (1 - epsilon) * alias-table probabilities — the
  /// frozen snapshot from the last rebuild, before any rebuild the next step
  /// might trigger. Fails when the sampler does not run the kAlias path.
  /// Used by the equivalence tests to bound the staleness gap against
  /// CurrentInstrumental().
  Result<std::vector<double>> AliasInstrumental() const;

  /// Read access to the stratified beta posterior (diagnostics/tests: e.g.
  /// per-stratum visit counts via labels_observed()).
  const StratifiedBetaModel& model() const { return model_; }

  /// Per-stratum mean predictions lambda (fixed by the pool).
  const std::vector<double>& lambda() const { return setup_->lambda(); }

  /// The stratification the sampler draws over.
  const Strata& strata() const { return *strata_; }
  /// Resolved options (prior_strength filled in when the caller left it 0).
  const OasisOptions& options() const { return options_; }
  /// Algorithm-2 initial F-measure guess F-hat(0), used until Eqn. (3) is
  /// defined.
  double initial_f() const { return setup_->initial_f(); }

  /// The importance-weight health monitor (always collecting; see
  /// OasisOptions::degeneracy).
  const DegeneracyMonitor* degeneracy_monitor() const override {
    return &monitor_;
  }

  /// Whether the graceful-degradation hook has fired (see
  /// OasisOptions::degrade_on_degeneracy).
  bool degraded() const { return degraded_; }

  /// The epsilon floor currently in force (== options().epsilon until the
  /// sampler degrades).
  double active_epsilon() const { return active_epsilon_; }

 private:
  OasisSampler(std::shared_ptr<const OasisSetup> setup, const ScoredPool* pool,
               LabelCache* labels, const OasisOptions& options, Rng rng,
               StratifiedBetaModel model);

  /// What lines 3-5 hand to the shared tail: the stratum drawn and the
  /// probability v_k of the distribution the draw actually used.
  struct StratumDraw {
    size_t stratum = 0;
    double probability = 0.0;
  };

  /// `n` Algorithm-3 iterations, each one draw then CompleteStep.
  Status DoStepBatch(int64_t n) override;
  /// Lines 3-5 through the configured step_path — or, once degraded with
  /// freeze_instrumental_on_degrade, through DrawFromScratch alone (the
  /// refresh is skipped, so v(t) stays as MaybeDegrade built it).
  StratumDraw Draw();
  /// OasisStepPath::kFused: BuildInstrumental, then DrawFromScratch.
  StratumDraw DrawFused();
  /// Stratum ~ the v(t) held in v_scratch_ / running_scratch_, by an
  /// O(log K) search over the running sums.
  StratumDraw DrawFromScratch();
  /// OasisStepPath::kAlias: rebuild the alias table if it drifted, then an
  /// O(1) two-component mixture draw.
  StratumDraw DrawAlias();
  /// The rest of the iteration, shared by every path: item uniform within
  /// the stratum, then lines 6-11 — w_t = omega_k / v_k, oracle query,
  /// posterior update, AIS sums — and the observer, monitor, telemetry and
  /// MaybeDegrade.
  Status CompleteStep(StratumDraw draw);
  /// Line 3 of Algorithm 3 in two O(K) passes: writes the epsilon-greedy
  /// instrumental v(t) under F estimate `f` into `v` and its in-order running
  /// sums into `running_sums` (both num_strata long), ready for
  /// Rng::NextDiscreteFromRunningSums. Bit-identical to the spec-level
  /// OptimalStratifiedInstrumental + EpsilonGreedyMix that
  /// CurrentInstrumental() computes.
  void BuildInstrumental(double f, double* v, double* running_sums) const;
  /// Fires the graceful degradation once the monitor reports a degenerate
  /// weight history (no-op unless OasisOptions::degrade_on_degeneracy).
  void MaybeDegrade();
  /// One-time kAlias setup: the weights alias table, the mass scratch and
  /// the initial v* alias table. Called from Create() so construction can
  /// still fail cleanly.
  Status InitAlias();
  /// Unnormalised v* mass of stratum k under F estimate `f`: ScalarMass of
  /// core/mass_kernel.h, so it equals StratumMassKernel's element k bit for
  /// bit.
  double StratumMass(size_t k, double f) const;
  /// Probability of stratum k under the epsilon-greedy mixture the alias
  /// draw actually samples from (alias_degenerate_ selects the omega
  /// fallback). Single source of truth shared by DrawAlias and
  /// AliasInstrumental.
  double AliasMixtureProbability(size_t k) const;
  /// Recomputes every alias mass under `f` in O(K) (no allocation once
  /// built), refreshes the v* alias table in place and resets the drift
  /// accumulators.
  void RebuildAliasMasses(double f);
  /// Records the label in the beta posterior and refreshes the per-stratum
  /// caches of the observed stratum (the only one whose mean can change):
  /// the posterior-mean caches and, on kAlias, its live mass and the L1
  /// drift against the alias snapshot.
  void ObserveLabel(size_t stratum, bool label);

  // Shared, immutable per-run state: strata, Algorithm-2 guesses, lambda and
  // the per-stratum v* constants. strata_ points into it for the step path.
  std::shared_ptr<const OasisSetup> setup_;
  const Strata* strata_;
  OasisOptions options_;
  StratifiedBetaModel model_;
  AisEstimator estimator_;
  Observer observer_;
  // --- Degeneracy state --------------------------------------------------
  // Always-on weight health monitor; MaybeDegrade consults it per step.
  DegeneracyMonitor monitor_;
  // Epsilon floor in force: options_.epsilon until degradation boosts it.
  // Every step path and CurrentInstrumental read this, never options_.epsilon
  // directly, so the boost applies uniformly.
  double active_epsilon_ = 0.0;
  bool degraded_ = false;
  // Scratch buffers reused across iterations to avoid per-step allocation:
  // the instrumental v(t) and (fused path) its running sums. Once degraded
  // with freeze_instrumental_on_degrade they hold the frozen v(t).
  std::vector<double> v_scratch_;
  std::vector<double> running_scratch_;
  // --- Fused-path state --------------------------------------------------
  // Incrementally-maintained posterior means pi-hat_k and their square roots;
  // ObserveLabel refreshes only the observed stratum, so a step never
  // recomputes the full posterior. Values are bit-identical to
  // model_.PosteriorMeans() at all times.
  std::vector<double> pi_cache_;
  std::vector<double> sqrt_pi_cache_;
  // --- Alias-path state --------------------------------------------------
  // Static O(1) sampler over the stratum weights omega — the epsilon branch
  // of the mixture and the degenerate all-zero-mass fallback.
  AliasTable weights_alias_;
  // Frozen O(1) sampler over the unnormalised v* masses; rebuilt in place on
  // drift. Empty unless step_path == kAlias.
  AliasTable v_alias_;
  // The masses the table was built from (the snapshot the drift accumulator
  // measures against) and the live masses as they evolve with the posterior.
  // alias_live_mass_ is maintained incrementally: ObserveLabel refreshes only
  // the observed stratum.
  std::vector<double> alias_snapshot_mass_;
  std::vector<double> alias_live_mass_;
  // F-hat the alias masses were last (re)built with; < 0 until InitAlias.
  double alias_f_ = -1.0;
  // Total snapshot mass and accumulated L1 drift |live - snapshot| across
  // strata, maintained in O(1) per step:
  //   drift += |new_live_k - snap_k| - |old_live_k - snap_k|.
  double alias_total_ = 0.0;
  double alias_drift_ = 0.0;
  // True when the last rebuild found all-zero masses (the omega fallback).
  bool alias_degenerate_ = false;
};

}  // namespace oasis

#endif  // OASIS_CORE_OASIS_H_
