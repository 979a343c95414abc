// Ablation: the epsilon-greedy explore/exploit trade-off (paper Sec. 4.1.3
// and Remark 5). Sweeps epsilon on an Abt-Buy-profile pool. Expected shape:
// tiny epsilon (near-pure exploitation) gives the fastest convergence since
// scores are informative; epsilon -> 1 degenerates to proportional
// (passive-like) sampling; the library rejects epsilon = 0 outright because
// it voids the consistency guarantee.

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
  bench::Banner("Ablation — epsilon-greedy sweep (OASIS, Abt-Buy, K=30)",
                "final E|F-hat - F| at a 5000-label budget per epsilon");

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

  experiments::TextTable table({"epsilon", "E|F-hat - F|", "std.dev", "defined"});
  for (double epsilon : {1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0}) {
    OasisOptions oasis_options;
    oasis_options.epsilon = epsilon;
    auto curve = experiments::RunErrorCurve(
        experiments::MakeOasisSpec(oasis_options, pool.scored, strata)
            .ValueOrDie(),
        pool.scored, oracle, pool.true_measures.f_alpha, options);
    OASIS_CHECK_OK(curve.status());
    const experiments::ErrorCurve& c = curve.ValueOrDie();
    table.AddRow({experiments::FormatScientific(epsilon, 0),
                  experiments::FormatDouble(c.mean_abs_error.back(), 5),
                  experiments::FormatDouble(c.stddev.back(), 5),
                  experiments::FormatDouble(c.frac_defined.back(), 2)});
    std::printf("  epsilon=%g done\n", epsilon);
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print(std::cout);

  // epsilon = 0 must be rejected at construction (consistency guard).
  GroundTruthOracle guard_oracle(pool.truth);
  LabelCache labels(&guard_oracle);
  OasisOptions zero;
  zero.epsilon = 0.0;
  auto rejected =
      OasisSampler::Create(&pool.scored, &labels, strata, zero, Rng(1));
  std::printf("\nepsilon = 0 rejected as expected: %s\n",
              rejected.ok() ? "NO (BUG!)" : rejected.status().ToString().c_str());
  return 0;
}
