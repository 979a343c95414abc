// E-commerce catalogue matching evaluation — the scenario motivating the
// paper's Abt-Buy / Amazon-GoogleProducts experiments.
//
// Two product catalogues are generated, an L-SVM pair matcher is trained on
// a labelled subset, and then the matcher's F-measure over a large candidate
// pool is estimated four ways (Passive / Stratified / static IS / OASIS) at
// a small label budget, against the exact pool value.
//
// Build & run:  ./build/examples/ecommerce_evaluation

#include <cstdio>
#include <memory>

#include "datagen/benchmark_datasets.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"

using namespace oasis;

int main() {
  // An Abt-Buy-flavoured profile, scaled down so the example runs in
  // seconds. Moderate corruption keeps precision high while recall suffers.
  datagen::DatasetProfile profile;
  profile.name = "ecommerce-demo";
  profile.domain = datagen::Domain::kECommerce;
  profile.left_size = 400;
  profile.right_size = 400;
  profile.full_matches = 200;
  profile.pool_size = 20000;
  profile.pool_matches = 60;
  profile.hard_negative_fraction = 0.08;
  profile.train_matches = 100;
  profile.train_nonmatches = 1000;
  profile.train_hard_fraction = 0.3;
  profile.predicted_positive_factor = 0.6;

  std::printf("Generating catalogues, training L-SVM, scoring %lld pairs...\n",
              static_cast<long long>(profile.pool_size));
  auto pool_result = datagen::BuildBenchmarkPool(
      profile, datagen::ClassifierKind::kLinearSvm, /*calibrated=*/false,
      /*seed=*/20240610);
  if (!pool_result.ok()) {
    std::fprintf(stderr, "pool generation failed: %s\n",
                 pool_result.status().ToString().c_str());
    return 1;
  }
  datagen::BenchmarkPool pool = std::move(pool_result).ValueOrDie();
  std::printf(
      "pool ready: %lld pairs, %lld matches (imbalance 1:%.0f)\n"
      "matcher truth: precision %.3f, recall %.3f, F1/2 %.3f\n\n",
      static_cast<long long>(pool.scored.size()),
      static_cast<long long>(pool.pool_matches),
      static_cast<double>(pool.scored.size() - pool.pool_matches) /
          static_cast<double>(pool.pool_matches),
      pool.true_measures.precision, pool.true_measures.recall,
      pool.true_measures.f_alpha);

  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 30).ValueOrDie());

  experiments::RunnerOptions options;
  options.repeats = 40;
  options.trajectory.budget = 1000;
  options.trajectory.checkpoint_every = 1000;
  // Repeats fan out over all cores; the curve is bit-identical to a
  // single-threaded run. The progress hook may fire from worker threads, so
  // it sticks to async-signal-ish printing only.
  options.num_threads = 0;
  options.progress = [](int completed, int total) {
    if (completed == total || completed % 10 == 0) {
      std::fprintf(stderr, "  ... %d/%d repeats\n", completed, total);
    }
  };

  experiments::TextTable table(
      {"method", "E|F-hat - F| @1000 labels", "std.dev", "defined"});
  for (const experiments::MethodSpec& spec :
       {experiments::MakePassiveSpec(0.5),
        experiments::MakeStratifiedSpec(0.5, strata),
        experiments::MakeImportanceSpec(ImportanceOptions{}),
        experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
            .ValueOrDie()}) {
    auto curve = experiments::RunErrorCurve(spec, pool.scored, oracle,
                                            pool.true_measures.f_alpha, options);
    if (!curve.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", spec.name.c_str(),
                   curve.status().ToString().c_str());
      return 1;
    }
    const experiments::ErrorCurve& c = curve.ValueOrDie();
    table.AddRow({c.method, experiments::FormatDouble(c.mean_abs_error.back()),
                  experiments::FormatDouble(c.stddev.back()),
                  experiments::FormatDouble(c.frac_defined.back(), 2)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "The biased samplers (IS, OASIS) should beat Passive/Stratified by an\n"
      "order of magnitude: they spend labels on the small high-score strata\n"
      "where the F-measure information lives. On this pool the matcher's\n"
      "scores are clean, so static IS is already near-optimal; OASIS's edge\n"
      "grows when scores are noisy or uncalibrated (see bench/fig3).\n");
  return 0;
}
