#ifndef OASIS_CORE_OASIS_SETUP_H_
#define OASIS_CORE_OASIS_SETUP_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "sampling/sampler.h"
#include "strata/strata.h"

namespace oasis {

/// Everything OASIS derives from (pool, strata, alpha) alone, computed once
/// and shared read-only by every sampler of a run: the validated pool and
/// strata, Algorithm 2's initial guesses pi-hat(0), lambda and F-hat(0), and
/// the per-stratum constants of the v* formula. Building it costs O(N) (two
/// validation scans and the per-stratum means); an OasisSampler created from
/// it costs O(K). Immutable once built, so any number of threads may create
/// samplers from one set-up concurrently.
class OasisSetup {
 public:
  /// Validates `pool` (ScoredPool::Validate), `strata` (Strata::Validate, and
  /// one stratum entry per pool item) and alpha in [0, 1], then runs
  /// Algorithm 2. InvalidArgument on a null or mismatched input; the
  /// validators' own codes otherwise. `pool` must outlive the set-up and
  /// every sampler created from it, and must not change meanwhile.
  static Result<std::shared_ptr<const OasisSetup>> Create(
      const ScoredPool* pool, std::shared_ptr<const Strata> strata, double alpha);

  /// O(1): InvalidArgument unless `pool` is the very object the set-up was
  /// built from, still of the size it had then, and `alpha` is the set-up's.
  Status CheckMatches(const ScoredPool* pool, double alpha) const;

  const Strata& strata() const { return *strata_; }
  /// Algorithm-2 pi-hat(0), clamped to (0, 1) (valid beta-prior means).
  const std::vector<double>& initial_pi() const { return initial_pi_; }
  /// Per-stratum mean predictions lambda_k (fixed by the pool).
  const std::vector<double>& lambda() const { return lambda_; }
  /// Algorithm-2 F-hat(0).
  double initial_f() const { return initial_f_; }
  /// (1 - alpha) * (1 - lambda_k): the not-predicted factor of the v* mass,
  /// grouped exactly as OptimalStratifiedInstrumental groups it, so the
  /// fused scan stays bit-identical to that reference.
  const std::vector<double>& c_not_pred() const { return c_not_pred_; }
  /// alpha^2.
  double alpha_sq() const { return alpha_sq_; }

 private:
  OasisSetup() = default;

  const ScoredPool* pool_ = nullptr;
  int64_t pool_size_ = 0;
  std::shared_ptr<const Strata> strata_;
  double alpha_ = 0.0;
  std::vector<double> initial_pi_;
  std::vector<double> lambda_;
  double initial_f_ = 0.0;
  std::vector<double> c_not_pred_;
  double alpha_sq_ = 0.0;
};

}  // namespace oasis

#endif  // OASIS_CORE_OASIS_SETUP_H_
