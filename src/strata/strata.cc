#include "strata/strata.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace oasis {

Result<Strata> Strata::FromAssignment(std::span<const int32_t> assignment) {
  if (assignment.empty()) {
    return Status::InvalidArgument("Strata: empty assignment");
  }
  if (assignment.size() >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    // Item ids are stored as int32_t; a larger pool would silently wrap the
    // static_cast below into negative indices. Reject explicitly (pools past
    // 2^31 items need a wider id type, not truncation).
    return Status::InvalidArgument(
        "Strata: pool too large for int32_t item ids");
  }
  int32_t max_index = -1;
  for (int32_t a : assignment) {
    if (a < 0) return Status::InvalidArgument("Strata: negative stratum index");
    max_index = std::max(max_index, a);
  }

  // One stable counting sort. Count items per raw index, give each non-empty
  // index its compacted stratum and its slice of items_ (empty strata are
  // removed, order preserved: Algorithm 1 line 19), then scatter the items in
  // id order so every stratum lists its items in increasing order.
  const size_t n = assignment.size();
  std::vector<size_t> cursor(static_cast<size_t>(max_index) + 1, 0);
  for (int32_t a : assignment) ++cursor[static_cast<size_t>(a)];
  std::vector<int32_t> compacted(cursor.size(), -1);
  Strata strata;
  strata.offsets_.push_back(0);
  for (size_t raw = 0; raw < cursor.size(); ++raw) {
    if (cursor[raw] == 0) continue;
    compacted[raw] = static_cast<int32_t>(strata.offsets_.size() - 1);
    const size_t begin = strata.offsets_.back();
    strata.offsets_.push_back(begin + cursor[raw]);
    cursor[raw] = begin;
  }
  strata.items_.resize(n);
  strata.stratum_of_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t raw = static_cast<size_t>(assignment[i]);
    strata.stratum_of_[i] = compacted[raw];
    strata.items_[cursor[raw]++] = static_cast<int32_t>(i);
  }

  const size_t num_strata = strata.offsets_.size() - 1;
  strata.weights_.resize(num_strata);
  for (size_t k = 0; k < num_strata; ++k) {
    strata.weights_[k] =
        static_cast<double>(strata.size(k)) / static_cast<double>(n);
  }
  return strata;
}

Result<Strata> Strata::FromScoreEdges(std::span<const double> scores,
                                      std::span<const double> edges) {
  if (scores.empty()) return Status::InvalidArgument("Strata: empty scores");
  if (edges.size() < 2) {
    return Status::InvalidArgument("Strata: need at least two edges");
  }
  for (size_t i = 1; i < edges.size(); ++i) {
    if (!(edges[i] > edges[i - 1])) {
      return Status::InvalidArgument("Strata: edges must be strictly increasing");
    }
  }

  // Bin j covers [edges[j], edges[j+1}); out-of-range and top-edge values
  // clamp into the end bins — the std::upper_bound rule. An equal-width
  // bucket table over [edges.front(), edges.back()] gives each item a
  // starting bin (the bin of its bucket's lower boundary), and a fix-up
  // against the real edges makes it exact; with a few buckets per bin the
  // fix-up rarely moves, so this costs O(1) per item instead of a
  // mispredicting binary search. A range too wide or too narrow for a finite
  // bucket scale (infinite edges, subnormal widths) starts from the binary
  // search instead.
  constexpr size_t kBucketsPerBin = 4;
  const size_t num_bins = edges.size() - 1;
  const double lo = edges.front();
  const double range = edges.back() - lo;
  const double scale =
      static_cast<double>(kBucketsPerBin * num_bins) / range;
  const bool bucketed = std::isfinite(range) && std::isfinite(scale);
  const size_t num_buckets = bucketed ? kBucketsPerBin * num_bins : 0;
  const double last_bucket = static_cast<double>(num_buckets) - 1.0;
  std::vector<int32_t> first_bin(num_buckets);
  size_t bin = 0;
  for (size_t b = 0; b < num_buckets; ++b) {
    const double boundary = lo + range * (static_cast<double>(b) /
                                          static_cast<double>(num_buckets));
    while (bin + 1 < num_bins && edges[bin + 1] <= boundary) ++bin;
    first_bin[b] = static_cast<int32_t>(bin);
  }

  std::vector<int32_t> assignment(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    const double s = scores[i];
    if (std::isnan(s)) return Status::InvalidArgument("Strata: NaN score");
    size_t k;
    if (bucketed) {
      // Clamped before the cast, so +-inf and out-of-range scores land in
      // the end buckets.
      const double bucket = std::clamp((s - lo) * scale, 0.0, last_bucket);
      k = static_cast<size_t>(first_bin[static_cast<size_t>(bucket)]);
    } else {
      const auto it = std::upper_bound(edges.begin(), edges.end(), s);
      k = static_cast<size_t>(std::clamp<ptrdiff_t>(
          it - edges.begin() - 1, 0, static_cast<ptrdiff_t>(num_bins) - 1));
    }
    while (k > 0 && s < edges[k]) --k;
    while (k + 1 < num_bins && s >= edges[k + 1]) ++k;
    assignment[i] = static_cast<int32_t>(k);
  }
  return FromAssignment(assignment);
}

int32_t Strata::SampleItem(size_t k, Rng& rng) const {
  OASIS_DCHECK(k < num_strata());
  OASIS_DCHECK(size(k) > 0);
  return items_[offsets_[k] + rng.NextBounded(size(k))];
}

std::vector<double> Strata::MeanPerStratum(std::span<const double> values) const {
  OASIS_CHECK_EQ(values.size(), stratum_of_.size());
  std::vector<double> means(num_strata(), 0.0);
  for (size_t k = 0; k < num_strata(); ++k) {
    double acc = 0.0;
    for (int32_t item : items(k)) acc += values[static_cast<size_t>(item)];
    means[k] = acc / static_cast<double>(size(k));
  }
  return means;
}

std::vector<double> Strata::MeanPerStratum(std::span<const uint8_t> values) const {
  OASIS_CHECK_EQ(values.size(), stratum_of_.size());
  std::vector<double> means(num_strata(), 0.0);
  for (size_t k = 0; k < num_strata(); ++k) {
    double acc = 0.0;
    for (int32_t item : items(k)) {
      acc += values[static_cast<size_t>(item)] != 0 ? 1.0 : 0.0;
    }
    means[k] = acc / static_cast<double>(size(k));
  }
  return means;
}

Status Strata::Validate() const {
  if (weights_.empty()) return Status::FailedPrecondition("Strata: no strata");
  if (offsets_.size() != weights_.size() + 1 || offsets_.front() != 0 ||
      offsets_.back() != stratum_of_.size() ||
      items_.size() != stratum_of_.size()) {
    return Status::FailedPrecondition("Strata: not all items allocated");
  }
  std::vector<uint8_t> seen(stratum_of_.size(), 0);
  for (size_t k = 0; k < num_strata(); ++k) {
    if (offsets_[k + 1] <= offsets_[k]) {
      return Status::FailedPrecondition("Strata: empty stratum survived compaction");
    }
    for (int32_t item : items(k)) {
      if (item < 0 || static_cast<size_t>(item) >= stratum_of_.size()) {
        return Status::FailedPrecondition("Strata: item index out of range");
      }
      if (seen[static_cast<size_t>(item)]) {
        return Status::FailedPrecondition("Strata: item in multiple strata");
      }
      seen[static_cast<size_t>(item)] = 1;
      if (stratum_of_[static_cast<size_t>(item)] != static_cast<int32_t>(k)) {
        return Status::FailedPrecondition("Strata: stratum_of mismatch");
      }
    }
  }
  double weight_sum = 0.0;
  for (double w : weights_) weight_sum += w;
  if (std::abs(weight_sum - 1.0) > 1e-9) {
    return Status::FailedPrecondition("Strata: weights do not sum to 1");
  }
  return Status::OK();
}

}  // namespace oasis
