// Figure 2 harness: expected absolute error and standard deviation of the
// F1/2 estimate as a function of label budget, for Passive / Stratified /
// static IS / OASIS (K = 30, 60, 120; K = 10, 20, 40 on tweets100k), over
// all six evaluation pools — the paper's headline comparison.
//
// The shape to verify against the paper: OASIS converges with the fewest
// labels everywhere except cora (mild imbalance) where methods are close;
// Passive/Stratified trail badly under extreme imbalance; IS sits between.
//
// Runtime: scales with OASIS_REPEATS (default 50; the paper used 1000).
// OASIS_POOLS can restrict to a comma-free substring match, e.g.
// OASIS_POOLS=Abt-Buy ./fig2_convergence

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "datagen/benchmark_datasets.h"
#include "experiments/metrics.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"

using namespace oasis;

namespace {

int64_t BudgetFor(const std::string& pool_name) {
  // Budgets mirror the x-axis extents of the paper's Figure 2.
  if (pool_name == "Amazon-GoogleProducts") return 40000;
  if (pool_name == "restaurant") return 20000;
  if (pool_name == "DBLP-ACM") return 10000;
  if (pool_name == "Abt-Buy") return 20000;
  if (pool_name == "cora") return 20000;
  return 5000;  // tweets100k
}

std::vector<size_t> OasisKsFor(const std::string& pool_name) {
  if (pool_name == "tweets100k") return {10, 20, 40};
  return {30, 60, 120};
}

}  // namespace

int main() {
  bench::Banner(
      "Figure 2 — E|F-hat - F| and std.dev vs label budget, six pools",
      "methods: Passive, Stratified(K=30), IS, OASIS(K=30/60/120); alpha=1/2, "
      "epsilon=1e-3, eta=2K. Rows print '-' until >=95% of repeats have a "
      "defined estimate, as in the paper's plots.");

  const char* filter = std::getenv("OASIS_POOLS");

  for (const datagen::DatasetProfile& profile : datagen::StandardProfiles()) {
    if (filter != nullptr && *filter != '\0' &&
        profile.name.find(filter) == std::string::npos) {
      continue;
    }
    std::printf("### pool: %s\n", profile.name.c_str());
    std::fflush(stdout);
    auto pool_result = datagen::BuildBenchmarkPool(
        profile, datagen::ClassifierKind::kLinearSvm, /*calibrated=*/false,
        bench::Seed());
    if (!pool_result.ok()) {
      std::fprintf(stderr, "pool build failed: %s\n",
                   pool_result.status().ToString().c_str());
      return 1;
    }
    const datagen::BenchmarkPool pool = std::move(pool_result).ValueOrDie();
    std::printf("true F1/2 = %.4f (precision %.3f, recall %.3f)\n",
                pool.true_measures.f_alpha, pool.true_measures.precision,
                pool.true_measures.recall);

    GroundTruthOracle oracle(pool.truth);
    experiments::RunnerOptions options;
    options.repeats = bench::Repeats();
    options.base_seed = bench::Seed();
    options.num_threads = bench::Threads();
    options.trajectory.budget = BudgetFor(profile.name);
    options.trajectory.checkpoint_every = options.trajectory.budget / 20;

    // Shared stratification per K (Stratified baseline uses K=30 per paper).
    auto strata30 = std::make_shared<const Strata>(
        StratifyCsf(pool.scored.scores, 30, pool.scored.scores_are_probabilities).ValueOrDie());

    std::vector<experiments::MethodSpec> methods;
    methods.push_back(experiments::MakePassiveSpec(0.5));
    methods.push_back(experiments::MakeStratifiedSpec(0.5, strata30));
    methods.push_back(experiments::MakeImportanceSpec(ImportanceOptions{}));
    for (size_t k : OasisKsFor(profile.name)) {
      auto strata = std::make_shared<const Strata>(
          StratifyCsf(pool.scored.scores, k, pool.scored.scores_are_probabilities).ValueOrDie());
      methods.push_back(
          experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
              .ValueOrDie());
    }

    std::vector<experiments::ErrorCurve> curves;
    for (const experiments::MethodSpec& method : methods) {
      auto curve = experiments::RunErrorCurve(method, pool.scored, oracle,
                                              pool.true_measures.f_alpha, options);
      if (!curve.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", method.name.c_str(),
                     curve.status().ToString().c_str());
        return 1;
      }
      curves.push_back(std::move(curve).ValueOrDie());
      std::printf("  %-12s done (first defined at %lld labels)\n",
                  curves.back().method.c_str(),
                  static_cast<long long>(
                      experiments::FirstDefinedBudget(curves.back())));
      std::fflush(stdout);
    }

    std::printf("\n");
    experiments::PrintCurves(std::cout, curves, 0.95, 20);

    // Label savings at two error levels, vs Passive (the paper's headline
    // "83% fewer labels" style statistic). Under extreme imbalance Passive
    // often cannot reach the tighter level at all within the budget.
    for (const double target : {0.1, 0.05, 0.025}) {
      const int64_t passive_budget =
          experiments::BudgetToReachError(curves[0], target);
      std::printf("\nlabels to reach abs.err <= %.3f:\n", target);
      for (const experiments::ErrorCurve& curve : curves) {
        const int64_t budget = experiments::BudgetToReachError(curve, target);
        if (budget < 0) {
          std::printf("  %-12s  not reached within budget\n",
                      curve.method.c_str());
        } else if (passive_budget > 0) {
          std::printf("  %-12s  %7lld  (saving vs Passive: %.0f%%)\n",
                      curve.method.c_str(), static_cast<long long>(budget),
                      100.0 * (1.0 - static_cast<double>(budget) /
                                         static_cast<double>(passive_budget)));
        } else {
          std::printf("  %-12s  %7lld\n", curve.method.c_str(),
                      static_cast<long long>(budget));
        }
      }
    }
    std::printf("\n");
  }
  return 0;
}
