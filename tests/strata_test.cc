#include "strata/strata.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/random.h"

namespace oasis {
namespace {

TEST(StrataTest, FromAssignmentBasic) {
  const std::vector<int32_t> assignment{0, 1, 0, 2, 1};
  Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  EXPECT_EQ(strata.num_strata(), 3u);
  EXPECT_EQ(strata.num_items(), 5u);
  EXPECT_EQ(strata.size(0), 2u);
  EXPECT_EQ(strata.size(1), 2u);
  EXPECT_EQ(strata.size(2), 1u);
  EXPECT_TRUE(strata.Validate().ok());
}

TEST(StrataTest, FromAssignmentCompactsEmptyStrata) {
  // Stratum index 1 is unused; index 3 maps down to 1 after compaction.
  const std::vector<int32_t> assignment{0, 3, 0, 3};
  Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  EXPECT_EQ(strata.num_strata(), 2u);
  EXPECT_EQ(strata.stratum_of(0), 0);
  EXPECT_EQ(strata.stratum_of(1), 1);
  EXPECT_TRUE(strata.Validate().ok());
}

TEST(StrataTest, FromAssignmentRejectsEmptyAndNegative) {
  EXPECT_FALSE(Strata::FromAssignment({}).ok());
  const std::vector<int32_t> bad{0, -1};
  EXPECT_FALSE(Strata::FromAssignment(bad).ok());
}

TEST(StrataTest, WeightsSumToOneAndMatchSizes) {
  const std::vector<int32_t> assignment{0, 0, 0, 1};
  Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  EXPECT_DOUBLE_EQ(strata.weight(0), 0.75);
  EXPECT_DOUBLE_EQ(strata.weight(1), 0.25);
}

TEST(StrataTest, FromScoreEdgesBinsCorrectly) {
  const std::vector<double> scores{0.05, 0.15, 0.25, 0.95, 0.55};
  const std::vector<double> edges{0.0, 0.1, 0.5, 1.0};
  Strata strata = Strata::FromScoreEdges(scores, edges).ValueOrDie();
  EXPECT_EQ(strata.num_strata(), 3u);
  EXPECT_EQ(strata.stratum_of(0), 0);  // 0.05 in [0, 0.1)
  EXPECT_EQ(strata.stratum_of(1), 1);  // 0.15 in [0.1, 0.5)
  EXPECT_EQ(strata.stratum_of(2), 1);
  EXPECT_EQ(strata.stratum_of(3), 2);  // 0.95 in [0.5, 1.0]
  EXPECT_EQ(strata.stratum_of(4), 2);
}

TEST(StrataTest, FromScoreEdgesClampsOutOfRange) {
  const std::vector<double> scores{-5.0, 5.0};
  const std::vector<double> edges{0.0, 0.5, 1.0};
  Strata strata = Strata::FromScoreEdges(scores, edges).ValueOrDie();
  EXPECT_EQ(strata.stratum_of(0), 0);
  EXPECT_EQ(strata.stratum_of(1), static_cast<int32_t>(strata.num_strata()) - 1);
}

TEST(StrataTest, FromScoreEdgesDropsEmptyBins) {
  const std::vector<double> scores{0.05, 0.95};
  const std::vector<double> edges{0.0, 0.1, 0.5, 0.9, 1.0};
  Strata strata = Strata::FromScoreEdges(scores, edges).ValueOrDie();
  EXPECT_EQ(strata.num_strata(), 2u);  // Middle bins are empty and removed.
  EXPECT_TRUE(strata.Validate().ok());
}

TEST(StrataTest, FromScoreEdgesRejectsBadInput) {
  const std::vector<double> scores{0.5};
  EXPECT_FALSE(Strata::FromScoreEdges(scores, std::vector<double>{1.0}).ok());
  EXPECT_FALSE(
      Strata::FromScoreEdges(scores, std::vector<double>{1.0, 0.0}).ok());
  EXPECT_FALSE(Strata::FromScoreEdges({}, std::vector<double>{0.0, 1.0}).ok());
}

/// The binning rule FromScoreEdges documents, by binary search: bin j covers
/// [edges[j], edges[j + 1}), the last bin is closed above, and values outside
/// the range clamp into the first or last bin.
int32_t UpperBoundBin(double s, const std::vector<double>& edges) {
  const auto it = std::upper_bound(edges.begin(), edges.end(), s);
  const int64_t bin = static_cast<int64_t>(it - edges.begin()) - 1;
  return static_cast<int32_t>(
      std::clamp<int64_t>(bin, 0, static_cast<int64_t>(edges.size()) - 2));
}

/// Random scores plus every edge, its +-1-ulp neighbours, +-inf and values
/// far outside the range; all bins filled so no compaction renumbers them.
std::vector<double> EdgeProbeScores(const std::vector<double>& edges, Rng& rng) {
  const double lo = edges.front();
  const double hi = edges.back();
  std::vector<double> scores;
  for (int i = 0; i < 20000; ++i) {
    scores.push_back(lo + (hi - lo) * rng.NextDouble());
  }
  for (double e : edges) {
    scores.push_back(e);
    scores.push_back(std::nextafter(e, -std::numeric_limits<double>::infinity()));
    scores.push_back(std::nextafter(e, std::numeric_limits<double>::infinity()));
  }
  for (size_t j = 0; j + 1 < edges.size(); ++j) {
    scores.push_back(0.5 * (edges[j] + edges[j + 1]));
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (double s : {inf, -inf, lo - 1.0, hi + 1.0, lo - 1e300, hi + 1e300,
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::lowest()}) {
    scores.push_back(s);
  }
  return scores;
}

/// Edges over [lo, hi]: equal-width when `uneven` is false, otherwise
/// clustered towards lo the way CSF cuts a skewed score distribution.
std::vector<double> ProbeEdges(size_t k, double lo, double hi, bool uneven) {
  std::vector<double> edges(k + 1);
  for (size_t j = 0; j <= k; ++j) {
    const double u = static_cast<double>(j) / static_cast<double>(k);
    edges[j] = lo + (hi - lo) * (uneven ? u * u * u : u);
  }
  edges.back() = hi;
  return edges;
}

TEST(StrataTest, FromScoreEdgesMatchesUpperBoundRule) {
  Rng rng(41);
  for (size_t k : {1u, 30u, 1000u}) {
    for (bool uneven : {false, true}) {
      for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
               {0.0, 1.0}, {-13.7, 4.2}, {0.1, 0.1 + 1e-9}}) {
        const std::vector<double> edges = ProbeEdges(k, lo, hi, uneven);
        if (std::adjacent_find(edges.begin(), edges.end(),
                               std::greater_equal<double>()) != edges.end()) {
          continue;  // Too narrow a range for k strictly increasing edges.
        }
        const std::vector<double> scores = EdgeProbeScores(edges, rng);
        const Strata strata = Strata::FromScoreEdges(scores, edges).ValueOrDie();
        ASSERT_EQ(strata.num_strata(), k) << "k=" << k << " lo=" << lo;
        for (size_t i = 0; i < scores.size(); ++i) {
          ASSERT_EQ(strata.stratum_of(static_cast<int64_t>(i)),
                    UpperBoundBin(scores[i], edges))
              << "k=" << k << " uneven=" << uneven << " lo=" << lo
              << " score=" << scores[i];
        }
        EXPECT_TRUE(strata.Validate().ok());
      }
    }
  }
}

TEST(StrataTest, FromScoreEdgesMatchesUpperBoundRuleOnExtremeEdges) {
  // Ranges no finite bucket scale covers: infinite end edges, a span that
  // overflows, and subnormal widths.
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double big = std::numeric_limits<double>::max();
  Rng rng(43);
  for (const std::vector<double>& edges :
       {std::vector<double>{-inf, -1.0, 0.0, 1.0, inf},
        std::vector<double>{0.0, 1.0, inf},
        std::vector<double>{-big, 0.0, big},
        std::vector<double>{0.0, tiny, 2 * tiny, 3 * tiny}}) {
    std::vector<double> scores = {inf, -inf, 0.0, -0.0, 0.5, -2.0, 2.0,
                                  big, -big, tiny, 2 * tiny, 5 * tiny};
    for (double e : edges) {
      scores.push_back(e);
      scores.push_back(std::nextafter(e, -inf));
      scores.push_back(std::nextafter(e, inf));
    }
    for (int i = 0; i < 100; ++i) scores.push_back(rng.NextGaussian());
    const Strata strata = Strata::FromScoreEdges(scores, edges).ValueOrDie();
    std::vector<int32_t> expected(scores.size());
    for (size_t i = 0; i < scores.size(); ++i) {
      expected[i] = UpperBoundBin(scores[i], edges);
    }
    // Bins left empty are compacted away; compare the induced partition.
    const Strata reference = Strata::FromAssignment(expected).ValueOrDie();
    for (size_t i = 0; i < scores.size(); ++i) {
      ASSERT_EQ(strata.stratum_of(static_cast<int64_t>(i)),
                reference.stratum_of(static_cast<int64_t>(i)))
          << "score=" << scores[i];
    }
  }
}

TEST(StrataTest, FromScoreEdgesRefusesNaNScores) {
  const std::vector<double> edges = ProbeEdges(30, 0.0, 1.0, false);
  for (size_t at : {0u, 7u, 99u}) {
    std::vector<double> scores(100, 0.5);
    scores[at] = std::numeric_limits<double>::quiet_NaN();
    const Result<Strata> strata = Strata::FromScoreEdges(scores, edges);
    ASSERT_FALSE(strata.ok());
    EXPECT_EQ(strata.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(StrataTest, SampleItemStaysInStratum) {
  const std::vector<int32_t> assignment{0, 1, 0, 1, 0, 1, 1};
  Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    for (size_t k = 0; k < strata.num_strata(); ++k) {
      const int32_t item = strata.SampleItem(k, rng);
      EXPECT_EQ(strata.stratum_of(item), static_cast<int32_t>(k));
    }
  }
}

TEST(StrataTest, SampleItemIsUniformWithinStratum) {
  const std::vector<int32_t> assignment{0, 0, 0, 0};
  Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  Rng rng(17);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[strata.SampleItem(0, rng)];
  for (int c : counts) EXPECT_NEAR(c, n / 4, 400);
}

TEST(StrataTest, MeanPerStratumDouble) {
  const std::vector<int32_t> assignment{0, 0, 1, 1};
  Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  const std::vector<double> values{1.0, 3.0, 10.0, 20.0};
  const std::vector<double> means = strata.MeanPerStratum(values);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_DOUBLE_EQ(means[0], 2.0);
  EXPECT_DOUBLE_EQ(means[1], 15.0);
}

TEST(StrataTest, MeanPerStratumBinary) {
  const std::vector<int32_t> assignment{0, 0, 0, 1};
  Strata strata = Strata::FromAssignment(assignment).ValueOrDie();
  const std::vector<uint8_t> flags{1, 0, 1, 1};
  const std::vector<double> means = strata.MeanPerStratum(flags);
  EXPECT_NEAR(means[0], 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(means[1], 1.0);
}

}  // namespace
}  // namespace oasis
