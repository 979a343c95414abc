#include "core/oasis.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "core/instrumental.h"
#include "core/mass_kernel.h"
#include "stats/transforms.h"
#include "telemetry/telemetry.h"

namespace oasis {

namespace {

/// Per-step bookkeeping shared by every step path. The step counter is
/// always cheap; the weight histogram is detail-only (an extra bucket search
/// per step would be measurable on the fused path).
inline void RecordOasisStepTelemetry(double weight) {
  if (!OASIS_TELEMETRY_ON) return;
  static telemetry::Counter& steps = telemetry::DefaultRegistry().AddCounter(
      "oasis_sampler_steps_total",
      "Sampler steps taken (one oracle draw each), across all paths.");
  steps.Increment();
  if (OASIS_TELEMETRY_DETAIL_ON) {
    static telemetry::Histogram& weights =
        telemetry::DefaultRegistry().AddHistogram(
            "oasis_sampler_weight",
            "Importance weight of each step (detail mode only).",
            {0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0});
    weights.Observe(weight);
  }
}

}  // namespace

OasisSampler::OasisSampler(std::shared_ptr<const OasisSetup> setup,
                           const ScoredPool* pool, LabelCache* labels,
                           const OasisOptions& options, Rng rng,
                           StratifiedBetaModel model)
    : Sampler(pool, labels, options.alpha, rng),
      setup_(std::move(setup)),
      strata_(&setup_->strata()),
      options_(options),
      model_(std::move(model)),
      estimator_(options.alpha),
      monitor_(options.degeneracy),
      active_epsilon_(options.epsilon) {
  const size_t num_strata = strata_->num_strata();
  v_scratch_.resize(num_strata);
  running_scratch_.resize(num_strata);
  // Seed the incremental posterior caches; the per-stratum constants of the
  // v* formula come precomputed from the set-up.
  pi_cache_ = model_.PosteriorMeans();
  sqrt_pi_cache_.resize(num_strata);
  for (size_t k = 0; k < num_strata; ++k) {
    sqrt_pi_cache_[k] = std::sqrt(pi_cache_[k]);
  }
}

Result<std::unique_ptr<OasisSampler>> OasisSampler::Create(
    std::shared_ptr<const OasisSetup> setup, const ScoredPool* pool,
    LabelCache* labels, const OasisOptions& options, Rng rng) {
  if (setup == nullptr || pool == nullptr || labels == nullptr) {
    return Status::InvalidArgument("OasisSampler: null setup/pool/labels");
  }
  // O(1): the pool, strata and Algorithm-2 guesses were validated and
  // computed once, when the set-up was built.
  OASIS_RETURN_NOT_OK(setup->CheckMatches(pool, options.alpha));
  if (std::isnan(options.epsilon) || options.epsilon <= 0.0 ||
      options.epsilon > 1.0) {
    return Status::InvalidArgument(
        "OasisSampler: epsilon must lie in (0, 1] (Remark 5: epsilon = 0 "
        "forfeits consistency)");
  }
  if (std::isnan(options.alias_drift_tol) ||
      std::isinf(options.alias_drift_tol) || options.alias_drift_tol < 0.0) {
    return Status::InvalidArgument(
        "OasisSampler: alias_drift_tol must be finite and >= 0");
  }
  if (options.degrade_on_degeneracy &&
      (std::isnan(options.degraded_epsilon) || options.degraded_epsilon <= 0.0 ||
       options.degraded_epsilon > 1.0)) {
    return Status::InvalidArgument(
        "OasisSampler: degraded_epsilon must lie in (0, 1]");
  }

  // Sec. 6.3 default: eta = 2K unless the caller fixed a strength.
  OasisOptions resolved = options;
  if (resolved.prior_strength <= 0.0) {
    resolved.prior_strength =
        2.0 * static_cast<double>(setup->strata().num_strata());
  }
  OASIS_ASSIGN_OR_RETURN(
      StratifiedBetaModel model,
      StratifiedBetaModel::Create(setup->initial_pi(), resolved.prior_strength,
                                  resolved.decay_prior));

  std::unique_ptr<OasisSampler> sampler(new OasisSampler(
      std::move(setup), pool, labels, resolved, rng, std::move(model)));
  if (resolved.step_path == OasisStepPath::kAlias) {
    OASIS_RETURN_NOT_OK(sampler->InitAlias());
  }
  return sampler;
}

Result<std::unique_ptr<OasisSampler>> OasisSampler::Create(
    const ScoredPool* pool, LabelCache* labels,
    std::shared_ptr<const Strata> strata, const OasisOptions& options, Rng rng) {
  if (pool == nullptr || labels == nullptr || strata == nullptr) {
    return Status::InvalidArgument("OasisSampler: null pool/labels/strata");
  }
  OASIS_ASSIGN_OR_RETURN(
      std::shared_ptr<const OasisSetup> setup,
      OasisSetup::Create(pool, std::move(strata), options.alpha));
  return Create(std::move(setup), pool, labels, options, rng);
}

Result<std::unique_ptr<OasisSampler>> OasisSampler::CreateWithCsf(
    const ScoredPool* pool, LabelCache* labels, size_t target_strata,
    const OasisOptions& options, Rng rng) {
  if (pool == nullptr) {
    return Status::InvalidArgument("OasisSampler: null pool");
  }
  OASIS_ASSIGN_OR_RETURN(
      Strata strata,
      StratifyCsf(pool->scores, target_strata, pool->scores_are_probabilities));
  return Create(pool, labels, std::make_shared<const Strata>(std::move(strata)),
                options, rng);
}

double OasisSampler::StratumMass(size_t k, double f) const {
  return ScalarMass(strata_->weight(k), setup_->lambda()[k], pi_cache_[k],
                    sqrt_pi_cache_[k], setup_->c_not_pred()[k], f,
                    setup_->alpha_sq() * f * f, (1.0 - f) * (1.0 - f));
}

double OasisSampler::AliasMixtureProbability(size_t k) const {
  const double omega_k = strata_->weight(k);
  return alias_degenerate_
             ? omega_k
             : active_epsilon_ * omega_k +
                   (1.0 - active_epsilon_) * v_alias_.probability(k);
}

void OasisSampler::RebuildAliasMasses(double f) {
  const size_t num_strata = strata_->num_strata();
  const double a2f2 = setup_->alpha_sq() * f * f;
  const double omf2 = (1.0 - f) * (1.0 - f);
  alias_total_ = StratumMassKernel(
      strata_->weights().data(), setup_->lambda().data(), pi_cache_.data(),
      sqrt_pi_cache_.data(), setup_->c_not_pred().data(), f, a2f2, omf2,
      alias_snapshot_mass_.data(), num_strata);
  alias_degenerate_ = !(alias_total_ > 0.0);
  if (!alias_degenerate_) {
    // In-place Vose refresh over the retained buffers — no allocation.
    OASIS_CHECK_OK(v_alias_.Rebuild(alias_snapshot_mass_));
  }
  std::copy(alias_snapshot_mass_.begin(), alias_snapshot_mass_.end(),
            alias_live_mass_.begin());
  alias_drift_ = 0.0;
  alias_f_ = f;
}

Status OasisSampler::InitAlias() {
  OASIS_ASSIGN_OR_RETURN(weights_alias_, AliasTable::Build(strata_->weights()));
  // Build once over the (always valid) stratum weights purely to size the
  // table's internal buffers; RebuildAliasMasses installs the real masses in
  // place immediately after.
  OASIS_ASSIGN_OR_RETURN(v_alias_, AliasTable::Build(strata_->weights()));
  const size_t num_strata = strata_->num_strata();
  alias_snapshot_mass_.resize(num_strata);
  alias_live_mass_.resize(num_strata);
  RebuildAliasMasses(
      Clamp(estimator_.FAlphaOr(setup_->initial_f()), 0.0, 1.0));
  return Status::OK();
}

Status OasisSampler::DoStepBatch(int64_t n) {
  // OASIS is sequentially adaptive: the instrumental distribution for step
  // t + 1 depends on the oracle label observed at step t, so — unlike the
  // static samplers — a batch cannot pre-draw its items and amortise oracle
  // round-trips through LabelCache::QueryBatch without changing the
  // algorithm. Each iteration is one draw (lines 3-5) and the shared tail.
  for (int64_t i = 0; i < n; ++i) {
    OASIS_RETURN_NOT_OK(CompleteStep(Draw()));
  }
  return Status::OK();
}

OasisSampler::StratumDraw OasisSampler::Draw() {
  // Degraded mode: a fixed, fully-supported instrumental. The posterior and
  // the monitor keep updating (diagnostics and a possible recovery analysis),
  // but the sampling distribution no longer adapts.
  if (degraded_ && options_.freeze_instrumental_on_degrade) {
    return DrawFromScratch();
  }
  switch (options_.step_path) {
    case OasisStepPath::kAlias:
      return DrawAlias();
    case OasisStepPath::kFused:
      break;
  }
  return DrawFused();
}

OasisSampler::StratumDraw OasisSampler::DrawFused() {
  // Line 3: v(t) from the current posterior means and F estimate, in two
  // O(K) passes with no allocation.
  BuildInstrumental(Clamp(estimator_.FAlphaOr(setup_->initial_f()), 0.0, 1.0),
                    v_scratch_.data(), running_scratch_.data());
  return DrawFromScratch();
}

OasisSampler::StratumDraw OasisSampler::DrawFromScratch() {
  // Lines 4-5: stratum ~ v(t).
  const size_t k =
      rng().NextDiscreteFromRunningSums(v_scratch_, running_scratch_);
  return {k, v_scratch_[k]};
}

OasisSampler::StratumDraw OasisSampler::DrawAlias() {
  // Line 3 analogue: the alias table is a frozen snapshot of v*, so two
  // things drift — F-hat away from the build point, and the posterior masses
  // away from the snapshot (the table cannot absorb per-stratum point
  // updates). Rebuild in place (O(K), no allocation) when EITHER drift
  // crosses alias_drift_tol; in the degenerate all-zero state, rebuild as
  // soon as any mass becomes positive.
  const double f = Clamp(estimator_.FAlphaOr(setup_->initial_f()), 0.0, 1.0);
  const double f_drift = std::fabs(f - alias_f_);
  const bool mass_drifted =
      alias_degenerate_
          ? alias_drift_ > 0.0
          : alias_drift_ > options_.alias_drift_tol * alias_total_;
  if (f_drift > options_.alias_drift_tol || mass_drifted) {
    if (OASIS_TELEMETRY_ON) {
      static telemetry::Counter& rebuilds =
          telemetry::DefaultRegistry().AddCounter(
              "oasis_sampler_alias_rebuilds_total",
              "Full O(K) alias-table rebuilds triggered by F-hat or "
              "posterior-mass drift.");
      static telemetry::Histogram& drift_hist =
          telemetry::DefaultRegistry().AddHistogram(
              "oasis_sampler_alias_rebuild_drift",
              "|F-hat - alias F| observed at each alias rebuild.",
              {1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.25});
      rebuilds.Increment();
      drift_hist.Observe(f_drift);
    }
    RebuildAliasMasses(f);
  }

  // Lines 4-5: the epsilon-greedy mix as a two-component mixture, both
  // components O(1) alias draws — with probability epsilon a stratum ~ omega,
  // otherwise ~ the v* snapshot. The probability handed to the tail is that
  // of the mixture actually sampled — consistency holds at any staleness
  // because the epsilon component keeps full support.
  size_t k;
  if (alias_degenerate_ || rng().NextDouble() < active_epsilon_) {
    k = weights_alias_.Sample(rng());
  } else {
    k = v_alias_.Sample(rng());
  }
  return {k, AliasMixtureProbability(k)};
}

Status OasisSampler::CompleteStep(StratumDraw draw) {
  const size_t k = draw.stratum;
  // Line 5 (item half): an item uniform within the stratum.
  const int64_t item = strata_->SampleItem(k, rng());

  // Line 6: importance weight w_t = omega_k / v_k, since p(z) = 1/N and
  // q_t(z) = v_k / |P_k|, with v_k of the distribution the draw actually
  // used. The epsilon floor bounds this by 1/epsilon.
  const double weight = strata_->weight(k) / draw.probability;

  // Lines 7-8: query oracle, read prediction.
  OASIS_ASSIGN_OR_RETURN(const bool label, QueryLabel(item));
  const bool prediction = pool().predictions[static_cast<size_t>(item)] != 0;

  // Lines 9-11: posterior update and AIS sums.
  ObserveLabel(k, label);
  estimator_.Add(weight, label, prediction);
  if (observer_) observer_(weight, label, prediction);
  monitor_.Observe(weight);
  RecordOasisStepTelemetry(weight);
  MaybeDegrade();
  return Status::OK();
}

void OasisSampler::ObserveLabel(size_t stratum, bool label) {
  model_.Observe(stratum, label);
  // Only the observed stratum's posterior changed (Eqn. 10 is per-stratum),
  // so a single refresh keeps the caches exact.
  pi_cache_[stratum] = model_.PosteriorMean(stratum);
  sqrt_pi_cache_[stratum] = std::sqrt(pi_cache_[stratum]);
  if (options_.step_path != OasisStepPath::kAlias) return;
  // kAlias: O(1) maintenance of the L1 drift between the live masses and the
  // frozen snapshot — only this stratum's mass under the build-point F moved.
  const double snapshot = alias_snapshot_mass_[stratum];
  const double new_live = StratumMass(stratum, alias_f_);
  alias_drift_ += std::fabs(new_live - snapshot) -
                  std::fabs(alias_live_mass_[stratum] - snapshot);
  if (alias_drift_ < 0.0) alias_drift_ = 0.0;  // FP cancellation guard.
  alias_live_mass_[stratum] = new_live;
}

void OasisSampler::BuildInstrumental(double f, double* OASIS_RESTRICT v,
                                     double* OASIS_RESTRICT running_sums) const {
  const size_t num_strata = strata_->num_strata();
  const double* OASIS_RESTRICT weights = strata_->weights().data();
  // Pass 1: the unnormalised v* masses and their in-order total. Every
  // expression keeps OptimalStratifiedInstrumental's factor grouping, so v(t)
  // is bit-identical to CurrentInstrumental().
  double total = StratumMassKernel(
      weights, setup_->lambda().data(), pi_cache_.data(), sqrt_pi_cache_.data(),
      setup_->c_not_pred().data(), f, setup_->alpha_sq() * f * f,
      (1.0 - f) * (1.0 - f), v, num_strata);
  if (total <= 0.0) {
    // Degenerate estimates: fall back to the (already normalised by
    // invariant, renormalised here for exact parity with
    // OptimalStratifiedInstrumental) stratum weights. Dividing them by 1.0
    // below is exact.
    std::copy(weights, weights + num_strata, v);
    NormalizeInPlace(std::span<double>(v, num_strata));
    total = 1.0;
  }
  // Pass 2: normalise, mix with omega, and store the running sums — the same
  // additions in the same order as NextDiscreteLinear's scan, so the O(log K)
  // Rng::NextDiscreteFromRunningSums returns the index that scan would.
  const double epsilon = active_epsilon_;
  double acc = 0.0;
  for (size_t i = 0; i < num_strata; ++i) {
    v[i] = epsilon * weights[i] + (1.0 - epsilon) * (v[i] / total);
    acc += v[i];
    running_sums[i] = acc;
  }
}

void OasisSampler::MaybeDegrade() {
  if (!options_.degrade_on_degeneracy || degraded_ || !monitor_.degenerate()) {
    return;
  }
  // Graceful degradation: the weight history says the adaptive instrumental
  // has collapsed onto a vanishing subset of draws. Boost the exploration
  // floor — bounding every future weight by 1/active_epsilon_ — and
  // optionally stop chasing the (evidently misleading) posterior. Estimates
  // remain consistent: from here on the sampler still draws from a fixed,
  // fully-supported distribution and weights against THAT distribution, so
  // the AIS estimator keeps averaging unbiased per-draw ratios (see
  // docs/FAULT_MODEL.md for the argument and its Delyon–Portier framing).
  degraded_ = true;
  if (OASIS_TELEMETRY_ON) {
    static telemetry::Counter& entries = telemetry::DefaultRegistry().AddCounter(
        "oasis_sampler_degraded_entries_total",
        "Times a sampler entered degraded (boosted-epsilon) mode.");
    entries.Increment();
  }
  active_epsilon_ = std::max(options_.epsilon, options_.degraded_epsilon);
  if (options_.freeze_instrumental_on_degrade) {
    // Freeze: build v(t) one last time, under the boosted floor, into the
    // fused scratch; Draw() now only draws from it.
    BuildInstrumental(Clamp(estimator_.FAlphaOr(setup_->initial_f()), 0.0, 1.0),
                      v_scratch_.data(), running_scratch_.data());
  }
}

EstimateSnapshot OasisSampler::Estimate() const { return estimator_.Snapshot(); }

std::string OasisSampler::name() const {
  return "OASIS-" + std::to_string(strata_->num_strata());
}

Result<std::vector<double>> OasisSampler::AliasInstrumental() const {
  if (options_.step_path != OasisStepPath::kAlias) {
    return Status::FailedPrecondition(
        "AliasInstrumental: sampler does not run the kAlias step path");
  }
  const size_t num_strata = strata_->num_strata();
  std::vector<double> v(num_strata);
  for (size_t k = 0; k < num_strata; ++k) {
    v[k] = AliasMixtureProbability(k);
  }
  return v;
}

Result<std::vector<double>> OasisSampler::CurrentInstrumental() const {
  const double f_current = estimator_.FAlphaOr(setup_->initial_f());
  std::vector<double> pi = model_.PosteriorMeans();
  OASIS_ASSIGN_OR_RETURN(
      std::vector<double> v_star,
      OptimalStratifiedInstrumental(strata_->weights(), setup_->lambda(), pi,
                                    f_current, options_.alpha));
  return EpsilonGreedyMix(strata_->weights(), v_star, active_epsilon_);
}

}  // namespace oasis
