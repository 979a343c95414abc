// Ablation: how much of the oracle-optimal variance reduction does OASIS
// capture? Compares OASIS (which must learn pi and F online) against the
// OracleOptimal reference sampler that draws from the true asymptotically
// optimal instrumental distribution (built from full ground truth — the
// performance ceiling of Sec. 4.1), plus Passive as the floor.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "datagen/benchmark_datasets.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "oracle/ground_truth_oracle.h"
#include "sampling/oracle_sampler.h"
#include "strata/csf.h"

using namespace oasis;

int main() {
  bench::Banner("Ablation — OASIS vs the oracle-optimal sampler (Abt-Buy, K=30)",
                "E|F-hat - F| at increasing budgets; OracleOptimal uses the "
                "true per-stratum match rates and true F (unknowable in "
                "practice) and is the adaptive scheme's target");

  auto profile = datagen::ProfileByName("Abt-Buy");
  OASIS_CHECK_OK(profile.status());
  auto pool_result = datagen::BuildBenchmarkPool(
      profile.ValueOrDie(), datagen::ClassifierKind::kLinearSvm, false,
      bench::Seed());
  OASIS_CHECK_OK(pool_result.status());
  const datagen::BenchmarkPool pool = std::move(pool_result).ValueOrDie();
  GroundTruthOracle oracle(pool.truth);
  auto strata = std::make_shared<const Strata>(
      StratifyCsf(pool.scored.scores, 30, pool.scored.scores_are_probabilities)
          .ValueOrDie());

  experiments::RunnerOptions options;
  options.repeats = bench::Repeats();
  options.base_seed = bench::Seed();
  options.num_threads = bench::Threads();
  options.trajectory.budget = 10000;
  options.trajectory.checkpoint_every = 1000;

  // Oracle-optimal method spec: capture truth by value for thread safety.
  const std::vector<uint8_t> truth = pool.truth;
  experiments::MethodSpec oracle_spec;
  oracle_spec.name = "OracleOptimal";
  oracle_spec.factory = [strata, truth](const ScoredPool* p, LabelCache* labels,
                                        Rng rng)
      -> Result<std::unique_ptr<Sampler>> {
    OASIS_ASSIGN_OR_RETURN(
        std::unique_ptr<OracleOptimalSampler> sampler,
        OracleOptimalSampler::Create(p, labels, strata, truth, 0.5, 1e-3, rng));
    return std::unique_ptr<Sampler>(std::move(sampler));
  };

  std::vector<experiments::ErrorCurve> curves;
  for (const experiments::MethodSpec& spec :
       {experiments::MakePassiveSpec(0.5),
        experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
            .ValueOrDie(),
        oracle_spec}) {
    auto curve = experiments::RunErrorCurve(spec, pool.scored, oracle,
                                            pool.true_measures.f_alpha, options);
    OASIS_CHECK_OK(curve.status());
    curves.push_back(std::move(curve).ValueOrDie());
    std::printf("  %s done\n", curves.back().method.c_str());
    std::fflush(stdout);
  }

  std::printf("\n");
  experiments::PrintCurves(std::cout, curves, 0.95, 10);

  const double oasis_final = curves[1].mean_abs_error.back();
  const double oracle_final = curves[2].mean_abs_error.back();
  std::printf(
      "\nfinal-budget error — OASIS %.4f vs OracleOptimal %.4f "
      "(ratio %.2f; 1.0 = fully closed the adaptivity gap)\n",
      oasis_final, oracle_final,
      oracle_final > 0 ? oasis_final / oracle_final : 0.0);
  return 0;
}
