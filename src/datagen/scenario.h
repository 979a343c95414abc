#ifndef OASIS_DATAGEN_SCENARIO_H_
#define OASIS_DATAGEN_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "eval/confusion.h"
#include "eval/measures.h"
#include "experiments/config.h"
#include "oracle/oracle.h"
#include "sampling/sampler.h"

namespace oasis {
namespace datagen {

/// Families of adversarial evaluation-pool generators. Every family reduces
/// the pool to EXACT confusion counts first (TP/FP/FN/TN as integers fixed
/// before a single score is drawn), so the pool-level F-measure is known *by
/// construction* — the property that makes every scenario self-verifying
/// (docs/SCENARIOS.md). Families differ in how the counts are derived from
/// the spec's knobs and in the shape of the score distribution laid over
/// them.
enum class ScenarioFamily {
  /// Stripe-style exact construction: TP/FP/FN given directly in the spec,
  /// F fixed by design (the stripe_ctrl_alpha idea from the join-sampling
  /// literature, transplanted to F-measure pools).
  kExactCount,
  /// Extreme class imbalance: match_rate down to 1e-5, with the classifier's
  /// recall/precision realised as exactly rounded counts.
  kImbalance,
  /// Heavy stratum skew: scores concentrate mass near the negative extreme
  /// (power-law within each class band) so CSF produces one enormous stratum
  /// and a tail of tiny ones — the paper's Figure 1 shape, exaggerated.
  kStratumSkew,
  /// Clustered heterogeneous strata: scores drawn from narrow, well-separated
  /// clusters of very different sizes.
  kClustered,
  /// Near-degenerate: every item carries the same score, so any score-based
  /// stratifier collapses to a single non-empty stratum.
  kSingleStratum,
  /// Near-degenerate: every item is a true match (no negatives exist).
  kAllMatch,
  /// Near-degenerate: no true matches at all (F = 0 when anything is
  /// predicted positive and alpha > 0).
  kNoMatch,
  /// Adversarial score inversion — the Bezakova-et-al-style SIS breaker:
  /// scores are anti-correlated with the truth inside each prediction band,
  /// and almost all true-match mass hides at the score minimum where a
  /// score-driven static instrumental distribution puts vanishing mass.
  /// A static importance sampler's weights collapse here (its
  /// DegeneracyMonitor must trip); OASIS adapts away from the lie and stays
  /// healthy.
  kScoreInversion,
  /// Noisy-oracle preset: a standard pool whose oracle flips labels with a
  /// configured rate; the estimator's asymptotic target is adjusted
  /// analytically (still exact by construction).
  kNoisyOracle,
};

/// Canonical lower-case name of a family ("exact-count", "imbalance", ...).
std::string ScenarioFamilyName(ScenarioFamily family);

/// Inverse of ScenarioFamilyName; fails on unknown names.
Result<ScenarioFamily> ScenarioFamilyFromName(const std::string& name);

/// Largest pool a ScenarioSpec may ask for. GenerateScenario reserves the
/// scores, predictions and truth of every item up front (10 bytes an item),
/// and a run then builds its per-item strata and label state on top, so 10^8
/// items is about a gigabyte before the first label. That is over 100 times
/// the largest in-tree pool (676 267 items), and it refuses a size such as
/// 10^15 before anything is allocated instead of aborting in bad_alloc.
inline constexpr int64_t kMaxScenarioPoolSize = 100000000;

/// A difficulty-controlled scenario: everything needed to regenerate its
/// pool bit-for-bit. Serialisable to the apps' `key = value` config format
/// (ToConfigString / FromConfig), so gen -> run -> verify round-trips through
/// files.
struct ScenarioSpec {
  /// Scenario name, used in file names and reports.
  std::string name = "scenario";
  /// Generator family; selects both the count derivation and the score shape.
  ScenarioFamily family = ScenarioFamily::kExactCount;
  /// Number of pool items N, in [1, kMaxScenarioPoolSize].
  int64_t pool_size = 10000;
  /// Generation seed; pools are a pure function of (spec, seed).
  uint64_t seed = 1;
  /// F-measure weight the scenario's exact truth is computed at.
  double alpha = 0.5;

  // --- kExactCount knobs --------------------------------------------------
  /// Exact true positives (kExactCount only; other families derive counts).
  int64_t true_positives = 0;
  /// Exact false positives (kExactCount only).
  int64_t false_positives = 0;
  /// Exact false negatives (kExactCount only).
  int64_t false_negatives = 0;

  // --- Derived-count knobs (all families except kExactCount) --------------
  /// Fraction of pool items that are true matches; matches are realised as
  /// round(match_rate * pool_size) exactly (imbalance presets go to 1e-5).
  double match_rate = 0.01;
  /// The synthetic classifier's recall: TP = round(recall * matches).
  double classifier_recall = 0.8;
  /// The synthetic classifier's precision: FP = TP * (1-p)/p, rounded.
  double classifier_precision = 0.8;

  // --- Family-specific difficulty knobs -----------------------------------
  /// kStratumSkew: power-law exponent of the within-band score draw (u^skew);
  /// larger = heavier concentration at the band's low edge.
  double skew_exponent = 6.0;
  /// kClustered: number of score clusters per prediction band.
  int64_t clusters_per_band = 4;
  /// kNoisyOracle: symmetric label flip rate in [0, 0.5); the exact truth
  /// target is adjusted for the flip analytically. 0 elsewhere.
  double flip_rate = 0.0;

  /// Whether this pool is designed to degenerate a *static* importance
  /// sampler's weights (oasis_verify and the property tests assert the
  /// DegeneracyMonitor trips exactly on these). Defaulted by family via
  /// Resolve(); kScoreInversion sets it.
  bool expect_sis_degeneracy = false;

  /// Scenario-specific |F-hat - F| tolerance used by default when verifying
  /// runs on this pool (adversarial presets carry wider bands).
  double verify_tolerance = 0.05;

  /// Structural validation of the knobs (sizes, rates, count fit).
  Status Validate() const;

  /// Serialises every field as `key = value` lines, parseable by FromConfig.
  std::string ToConfigString() const;

  /// Parses a spec from a ConfigMap (unknown keys fail via
  /// CheckAllKeysUsed so config typos surface loudly).
  static Result<ScenarioSpec> FromConfig(const experiments::ConfigMap& config);
};

/// A generated scenario pool: the estimator's view plus the hidden truth and
/// the exact (constructed) measures every run on this pool is judged against.
struct ScenarioPool {
  /// The resolved spec the pool was generated from.
  ScenarioSpec spec;
  /// Scores + predictions (what samplers see).
  ScoredPool scored;
  /// Hidden ground truth per item (feeds the oracle; never the estimator).
  std::vector<uint8_t> truth;
  /// Exact confusion counts, fixed before score generation.
  ConfusionCounts counts;
  /// The estimator's asymptotic target: F_alpha from `counts` for clean
  /// oracles, the flip-adjusted value for kNoisyOracle (see
  /// docs/SCENARIOS.md for the closed form).
  double true_f = 0.0;
  /// Precision/recall/F from the clean counts at spec.alpha (reporting).
  Measures clean_measures;
};

/// Generates the pool for `spec`. Deterministic: two calls with equal specs
/// return bit-identical pools. Fails on invalid specs.
Result<ScenarioPool> GenerateScenario(const ScenarioSpec& spec);

/// Builds the oracle a run on this pool should label against: a
/// GroundTruthOracle, or a NoisyOracle with the spec's flip rate for
/// kNoisyOracle pools.
Result<std::unique_ptr<Oracle>> MakeScenarioOracle(const ScenarioPool& pool);

/// The built-in catalogue of named difficulty presets (stripe-f90,
/// imbalance-1e3, skew-heavy, single-stratum, sis-inversion, ...); see
/// docs/SCENARIOS.md for the full table.
const std::vector<ScenarioSpec>& ScenarioCatalog();

/// Catalogue lookup by name; the error message lists the known names.
Result<ScenarioSpec> ScenarioByName(const std::string& name);

}  // namespace datagen
}  // namespace oasis

#endif  // OASIS_DATAGEN_SCENARIO_H_
