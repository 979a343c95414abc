// Ablation: prior strength eta and the Remark-4 retroactive prior decay.
// Sweeps eta with decay on/off on the Abt-Buy profile. Expected shape: with
// decay, performance is flat across eta (robustness claim of Remark 4);
// without decay, large eta (a stubborn, partially wrong score-based prior)
// slows convergence of the instrumental distribution and widens error.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "datagen/benchmark_datasets.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"

using namespace oasis;

int main() {
  bench::Banner("Ablation — prior strength eta x Remark-4 decay (Abt-Buy, K=30)",
                "final E|F-hat - F| at a 5000-label budget");

  auto profile = datagen::ProfileByName("Abt-Buy");
  OASIS_CHECK_OK(profile.status());
  auto pool_result = datagen::BuildBenchmarkPool(
      profile.ValueOrDie(), datagen::ClassifierKind::kLinearSvm, false,
      bench::Seed());
  OASIS_CHECK_OK(pool_result.status());
  const datagen::BenchmarkPool pool = std::move(pool_result).ValueOrDie();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 30, pool.scored.scores_are_probabilities).ValueOrDie());

  experiments::RunnerOptions options;
  options.repeats = bench::Repeats();
  options.base_seed = bench::Seed();
  options.num_threads = bench::Threads();
  options.trajectory.budget = 5000;
  options.trajectory.checkpoint_every = 5000;

  experiments::TextTable table(
      {"eta", "decay on: E|err|", "decay on: std", "decay off: E|err|",
       "decay off: std"});
  for (double eta : {1.0, 10.0, 60.0, 300.0, 2000.0}) {
    std::vector<std::string> row{experiments::FormatDouble(eta, 0)};
    for (bool decay : {true, false}) {
      OasisOptions oasis_options;
      oasis_options.prior_strength = eta;
      oasis_options.decay_prior = decay;
      auto curve = experiments::RunErrorCurve(
          experiments::MakeOasisSpec(oasis_options, pool.scored, strata)
              .ValueOrDie(),
          pool.scored, oracle, pool.true_measures.f_alpha, options);
      OASIS_CHECK_OK(curve.status());
      const experiments::ErrorCurve& c = curve.ValueOrDie();
      row.push_back(experiments::FormatDouble(c.mean_abs_error.back(), 5));
      row.push_back(experiments::FormatDouble(c.stddev.back(), 5));
    }
    table.AddRow(std::move(row));
    std::printf("  eta=%g done\n", eta);
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print(std::cout);
  return 0;
}
