// Figure 5 harness: expected absolute error in F1/2 after 5000 labels for
// five classifier families (NN, AdaBoost, LR, L-SVM, RBF-SVM) trained on the
// Abt-Buy profile, for each estimation method, with ~95% confidence
// intervals. The paper's shape: OASIS lands roughly an order of magnitude
// below IS across classifiers; Passive/Stratified trail far behind.

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
      "Figure 5 — E|F-hat - F| after 5000 labels, five classifiers (Abt-Buy)",
      "cells: mean abs err +- 95% CI over repeats");

  auto profile = datagen::ProfileByName("Abt-Buy");
  OASIS_CHECK_OK(profile.status());

  const datagen::ClassifierKind kinds[] = {
      datagen::ClassifierKind::kMlp, datagen::ClassifierKind::kAdaBoost,
      datagen::ClassifierKind::kLogisticRegression,
      datagen::ClassifierKind::kLinearSvm, datagen::ClassifierKind::kRbfSvm};

  experiments::TextTable table(
      {"classifier", "true F1/2", "Passive", "Stratified", "IS", "OASIS-30"});

  for (datagen::ClassifierKind kind : kinds) {
    std::printf("building %s pool...\n",
                datagen::ClassifierKindName(kind).c_str());
    std::fflush(stdout);
    auto pool_result = datagen::BuildBenchmarkPool(profile.ValueOrDie(), kind,
                                                   /*calibrated=*/false,
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

    auto strata = std::make_shared<const Strata>(
        StratifyCsf(pool.scored.scores, 30, pool.scored.scores_are_probabilities).ValueOrDie());

    std::vector<std::string> row{datagen::ClassifierKindName(kind),
                                 experiments::FormatDouble(
                                     pool.true_measures.f_alpha, 3)};
    for (const experiments::MethodSpec& spec :
         {experiments::MakePassiveSpec(0.5),
          experiments::MakeStratifiedSpec(0.5, strata),
          experiments::MakeImportanceSpec(ImportanceOptions{}),
          experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
              .ValueOrDie()}) {
      auto summary = experiments::RunFinalError(
          spec, pool.scored, oracle, pool.true_measures.f_alpha, options);
      OASIS_CHECK_OK(summary.status());
      const experiments::FinalErrorSummary& s = summary.ValueOrDie();
      row.push_back(experiments::FormatDouble(s.mean_abs_error, 4) + " +- " +
                    experiments::FormatDouble(s.ci_half_width, 4));
    }
    table.AddRow(std::move(row));
  }
  std::printf("\n");
  table.Print(std::cout);
  return 0;
}
