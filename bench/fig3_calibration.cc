// Figure 3 harness: calibrated vs uncalibrated similarity scores for the
// static IS sampler and for OASIS (K = 60), on the Abt-Buy and DBLP-ACM
// pools. The paper's finding: calibration helps IS substantially (its static
// instrumental distribution depends on score quality), while OASIS degrades
// much less because it learns the oracle probabilities from incoming labels.

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
  bench::Banner(
      "Figure 3 — calibrated vs uncalibrated scores (IS and OASIS, K=60)",
      "four curves per pool: IS uncal., OASIS uncal., IS cal., OASIS cal.");

  for (const char* pool_name : {"Abt-Buy", "DBLP-ACM"}) {
    auto profile = datagen::ProfileByName(pool_name);
    OASIS_CHECK_OK(profile.status());
    const int64_t budget = std::string(pool_name) == "Abt-Buy" ? 8000 : 3000;

    std::printf("### pool: %s (budget %lld)\n", pool_name,
                static_cast<long long>(budget));
    std::fflush(stdout);

    std::vector<experiments::ErrorCurve> curves;
    for (const bool calibrated : {false, true}) {
      auto pool_result = datagen::BuildBenchmarkPool(
          profile.ValueOrDie(), datagen::ClassifierKind::kLinearSvm, calibrated,
          bench::Seed());
      OASIS_CHECK_OK(pool_result.status());
      const datagen::BenchmarkPool pool = std::move(pool_result).ValueOrDie();
      GroundTruthOracle oracle(pool.truth);

      experiments::RunnerOptions options;
      options.repeats = bench::Repeats();
      options.base_seed = bench::Seed();
      options.num_threads = bench::Threads();
      options.trajectory.budget = budget;
      options.trajectory.checkpoint_every = budget / 20;

      auto strata = std::make_shared<const Strata>(
          StratifyCsf(pool.scored.scores, 60, pool.scored.scores_are_probabilities).ValueOrDie());

      const char* tag = calibrated ? "cal." : "uncal.";
      {
        auto curve = experiments::RunErrorCurve(
            experiments::MakeImportanceSpec(ImportanceOptions{}), pool.scored,
            oracle, pool.true_measures.f_alpha, options);
        OASIS_CHECK_OK(curve.status());
        curves.push_back(std::move(curve).ValueOrDie());
        curves.back().method = std::string("IS ") + tag;
      }
      {
        auto curve = experiments::RunErrorCurve(
            experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
                .ValueOrDie(),
            pool.scored, oracle, pool.true_measures.f_alpha, options);
        OASIS_CHECK_OK(curve.status());
        curves.push_back(std::move(curve).ValueOrDie());
        curves.back().method = std::string("OASIS ") + tag;
      }
      std::printf("  %s scores done (true F = %.4f)\n", tag,
                  pool.true_measures.f_alpha);
      std::fflush(stdout);
    }

    std::printf("\n");
    experiments::PrintCurves(std::cout, curves, 0.95, 16);

    // Summary: final-budget error degradation from calibrated -> raw scores.
    const double is_uncal = curves[0].mean_abs_error.back();
    const double oasis_uncal = curves[1].mean_abs_error.back();
    const double is_cal = curves[2].mean_abs_error.back();
    const double oasis_cal = curves[3].mean_abs_error.back();
    std::printf(
        "\nfinal abs.err — IS: %.4f (uncal.) vs %.4f (cal.)  [x%.1f worse raw]\n"
        "            OASIS: %.4f (uncal.) vs %.4f (cal.)  [x%.1f worse raw]\n\n",
        is_uncal, is_cal, is_cal > 0 ? is_uncal / is_cal : 0.0, oasis_uncal,
        oasis_cal, oasis_cal > 0 ? oasis_uncal / oasis_cal : 0.0);
  }
  return 0;
}
