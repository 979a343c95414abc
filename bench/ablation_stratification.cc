// Ablation: CSF vs equal-size stratification (the design choice of
// Sec. 4.2.1 / Algorithm 1). On an imbalanced pool, CSF isolates the tiny
// high-score strata that carry the F-measure information; equal-size strata
// bury them inside large mixed strata, inflating within-stratum variance and
// slowing OASIS down.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "datagen/benchmark_datasets.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"
#include "strata/equal_size.h"

using namespace oasis;

int main() {
  bench::Banner("Ablation — CSF vs equal-size stratification (Abt-Buy)",
                "final E|F-hat - F| at a 5000-label budget, K in {10,30,60}");

  auto profile = datagen::ProfileByName("Abt-Buy");
  OASIS_CHECK_OK(profile.status());
  auto pool_result = datagen::BuildBenchmarkPool(
      profile.ValueOrDie(), datagen::ClassifierKind::kLinearSvm, false,
      bench::Seed());
  OASIS_CHECK_OK(pool_result.status());
  const datagen::BenchmarkPool pool = std::move(pool_result).ValueOrDie();
  GroundTruthOracle oracle(pool.truth);

  experiments::RunnerOptions options;
  options.repeats = bench::Repeats();
  options.base_seed = bench::Seed();
  options.num_threads = bench::Threads();
  options.trajectory.budget = 5000;
  options.trajectory.checkpoint_every = 5000;

  experiments::TextTable table({"K", "CSF: E|err|", "CSF: std",
                                "equal-size: E|err|", "equal-size: std"});
  for (size_t k : {10u, 30u, 60u}) {
    std::vector<std::string> row{std::to_string(k)};
    for (const bool use_csf : {true, false}) {
      auto strata_result = use_csf
                               ? StratifyCsf(pool.scored.scores, k, pool.scored.scores_are_probabilities)
                               : StratifyEqualSize(pool.scored.scores, k);
      OASIS_CHECK_OK(strata_result.status());
      auto strata = std::make_shared<const Strata>(
          std::move(strata_result).ValueOrDie());
      auto curve = experiments::RunErrorCurve(
          experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
              .ValueOrDie(),
          pool.scored, oracle, pool.true_measures.f_alpha, options);
      OASIS_CHECK_OK(curve.status());
      const experiments::ErrorCurve& c = curve.ValueOrDie();
      row.push_back(experiments::FormatDouble(c.mean_abs_error.back(), 5));
      row.push_back(experiments::FormatDouble(c.stddev.back(), 5));
    }
    table.AddRow(std::move(row));
    std::printf("  K=%zu done\n", k);
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print(std::cout);
  return 0;
}
