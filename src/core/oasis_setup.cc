#include "core/oasis_setup.h"

#include <utility>

#include "core/initialization.h"

namespace oasis {

Result<std::shared_ptr<const OasisSetup>> OasisSetup::Create(
    const ScoredPool* pool, std::shared_ptr<const Strata> strata, double alpha) {
  if (pool == nullptr || strata == nullptr) {
    return Status::InvalidArgument("OasisSetup: null pool/strata");
  }
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("OasisSetup: alpha must be in [0, 1]");
  }
  if (static_cast<int64_t>(strata->num_items()) != pool->size()) {
    return Status::InvalidArgument("OasisSetup: strata/pool size mismatch");
  }
  OASIS_RETURN_NOT_OK(strata->Validate());
  // Algorithm 2; it validates the pool before reading scores or predictions.
  OASIS_ASSIGN_OR_RETURN(InitialEstimates init,
                         InitializeFromScores(*strata, *pool, alpha));

  std::shared_ptr<OasisSetup> setup(new OasisSetup());
  setup->pool_ = pool;
  setup->pool_size_ = pool->size();
  setup->strata_ = std::move(strata);
  setup->alpha_ = alpha;
  setup->initial_pi_ = std::move(init.pi);
  setup->lambda_ = std::move(init.lambda);
  setup->initial_f_ = init.f_alpha;
  setup->c_not_pred_.resize(setup->lambda_.size());
  for (size_t k = 0; k < setup->lambda_.size(); ++k) {
    setup->c_not_pred_[k] = (1.0 - alpha) * (1.0 - setup->lambda_[k]);
  }
  setup->alpha_sq_ = alpha * alpha;
  return std::shared_ptr<const OasisSetup>(std::move(setup));
}

Status OasisSetup::CheckMatches(const ScoredPool* pool, double alpha) const {
  if (pool != pool_ || pool->size() != pool_size_) {
    return Status::InvalidArgument(
        "OasisSampler: pool is not the one the set-up was built from");
  }
  if (alpha != alpha_) {
    return Status::InvalidArgument(
        "OasisSampler: options.alpha differs from the set-up's alpha");
  }
  return Status::OK();
}

}  // namespace oasis
