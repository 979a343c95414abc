#include "core/ais_estimator.h"

#include "common/logging.h"

namespace oasis {

AisEstimator::AisEstimator(double alpha) : alpha_(alpha) {
  OASIS_CHECK(alpha >= 0.0 && alpha <= 1.0);
}

EstimateSnapshot AisEstimator::Snapshot() const {
  EstimateSnapshot snap;
  const double denom = alpha_ * den_pred_ + (1.0 - alpha_) * den_true_;
  if (denom > 0.0) {
    snap.f_alpha = num_ / denom;
    snap.f_defined = true;
  }
  if (den_pred_ > 0.0) {
    snap.precision = num_ / den_pred_;
    snap.precision_defined = true;
  }
  if (den_true_ > 0.0) {
    snap.recall = num_ / den_true_;
    snap.recall_defined = true;
  }
  return snap;
}

double AisEstimator::FAlphaOr(double fallback) const {
  const EstimateSnapshot snap = Snapshot();
  return snap.f_defined ? snap.f_alpha : fallback;
}

}  // namespace oasis
