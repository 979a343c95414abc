#ifndef OASIS_STRATA_STRATA_H_
#define OASIS_STRATA_STRATA_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"

namespace oasis {

/// A disjoint partition of pool items {0, ..., N-1} into K strata.
///
/// Strata are the parameter-reduction device of the paper (Sec. 4.2.1): items
/// within a stratum are treated as exchangeable by the Bayesian label model,
/// so the N oracle probabilities collapse to K per-stratum parameters.
///
/// Layout: one flat array of the N item ids ordered by stratum (within a
/// stratum, by increasing id) plus K + 1 offsets into it, so stratum k's items
/// are items_[offsets_[k], offsets_[k + 1]).
///
/// Invariants (checked by Validate and asserted in debug builds):
///  * every item belongs to exactly one stratum;
///  * no stratum is empty;
///  * weights[k] == |P_k| / N and sums to 1.
class Strata {
 public:
  Strata() = default;

  /// Builds strata from an item->stratum assignment vector. Empty strata are
  /// removed and indices compacted (preserving order), mirroring Algorithm 1
  /// line 19. Fails when `assignment` is empty or contains a negative index.
  static Result<Strata> FromAssignment(std::span<const int32_t> assignment);

  /// Builds strata by binning `scores` into the half-open intervals defined
  /// by `edges` (ascending; last interval closed above). Items below/above
  /// the range are clamped into the first/last interval. Empty strata are
  /// removed. Fails on a NaN score. The result is exactly the
  /// std::upper_bound rule over `edges`, found in O(1) expected per item
  /// from an equal-width bucket table plus an exact fix-up.
  static Result<Strata> FromScoreEdges(std::span<const double> scores,
                                       std::span<const double> edges);

  /// Number of strata K (after empty-stratum removal).
  size_t num_strata() const { return weights_.size(); }

  /// Total number of pool items N.
  size_t num_items() const { return stratum_of_.size(); }

  /// Item indices allocated to stratum k, in increasing order.
  std::span<const int32_t> items(size_t k) const {
    return std::span<const int32_t>(items_).subspan(
        offsets_[k], offsets_[k + 1] - offsets_[k]);
  }

  /// Stratum index of a pool item.
  int32_t stratum_of(int64_t item) const { return stratum_of_[item]; }

  /// Stratum population weight omega_k = |P_k| / N.
  double weight(size_t k) const { return weights_[k]; }
  const std::vector<double>& weights() const { return weights_; }

  /// |P_k|.
  size_t size(size_t k) const { return offsets_[k + 1] - offsets_[k]; }

  /// Draws an item uniformly at random from stratum k.
  int32_t SampleItem(size_t k, Rng& rng) const;

  /// Mean of `values` (one entry per pool item) within each stratum; used for
  /// stratum mean scores (Fig. 1), mean predictions lambda_k, and tests.
  std::vector<double> MeanPerStratum(std::span<const double> values) const;

  /// Mean of a binary indicator (one entry per pool item) within each stratum.
  std::vector<double> MeanPerStratum(std::span<const uint8_t> values) const;

  /// Verifies the structural invariants listed above.
  Status Validate() const;

 private:
  std::vector<int32_t> items_;
  std::vector<size_t> offsets_;
  std::vector<int32_t> stratum_of_;
  std::vector<double> weights_;
};

}  // namespace oasis

#endif  // OASIS_STRATA_STRATA_H_
