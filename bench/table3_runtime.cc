// Table 3 harness: CPU time per run and per iteration for the cora pool.
//
// Two IS rows are reported:
//  * "IS (linear)" reproduces the paper's implementation, which draws from
//    the N-item instrumental distribution with an O(N) scan per draw — this
//    is the row whose time scales linearly in the pool size and lands an
//    order of magnitude above OASIS;
//  * "IS (alias)" is this library's production backend (O(1) draws), shown
//    as the engineering fix for the scaling problem the paper observed.
//
// Strata precomputation is excluded, matching the paper's protocol.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "common/logging.h"
#include "datagen/benchmark_datasets.h"
#include "experiments/report.h"
#include "experiments/timing.h"
#include "oracle/ground_truth_oracle.h"
#include "strata/csf.h"

using namespace oasis;

int main() {
  bench::Banner("Table 3 — CPU times for the cora experiment",
                "20,000 iterations per run; avg over repeats; std::clock CPU "
                "time. Shape to verify: IS(linear) >> OASIS > Stratified > "
                "Passive per iteration.");

  auto profile = datagen::ProfileByName("cora");
  OASIS_CHECK_OK(profile.status());
  std::printf("building cora pool (~328k pairs)...\n");
  std::fflush(stdout);
  auto pool_result = datagen::BuildBenchmarkPool(
      profile.ValueOrDie(), datagen::ClassifierKind::kLinearSvm,
      /*calibrated=*/false, bench::Seed());
  OASIS_CHECK_OK(pool_result.status());
  const datagen::BenchmarkPool pool = std::move(pool_result).ValueOrDie();
  GroundTruthOracle oracle(pool.truth);

  // 100k iterations give the nanosecond-clock enough signal on the O(1)
  // methods; IS (linear) is separately capped below.
  const int64_t iterations = bench::EnvInt("OASIS_TIMING_ITERS", 100000);
  const int repeats = bench::EnvInt("OASIS_TIMING_REPEATS", 3);

  std::vector<experiments::MethodSpec> methods;
  methods.push_back(experiments::MakePassiveSpec(0.5));
  {
    ImportanceOptions linear;
    linear.backend = SamplingBackend::kLinearScan;
    experiments::MethodSpec spec = experiments::MakeImportanceSpec(linear);
    spec.name = "IS (linear)";
    methods.push_back(std::move(spec));
  }
  {
    experiments::MethodSpec spec =
        experiments::MakeImportanceSpec(ImportanceOptions{});
    spec.name = "IS (alias)";
    methods.push_back(std::move(spec));
  }
  for (size_t k : {30u, 60u, 120u}) {
    auto strata = std::make_shared<const Strata>(
        StratifyCsf(pool.scored.scores, k, pool.scored.scores_are_probabilities).ValueOrDie());
    methods.push_back(
        experiments::MakeOasisSpec(OasisOptions{}, pool.scored, strata)
            .ValueOrDie());
  }
  {
    auto strata = std::make_shared<const Strata>(
        StratifyCsf(pool.scored.scores, 30, pool.scored.scores_are_probabilities).ValueOrDie());
    methods.push_back(experiments::MakeStratifiedSpec(0.5, strata));
  }

  experiments::TextTable table({"sampling method", "avg CPU/run (s)",
                                "avg CPU/iteration (s)", "setup (s)"});
  for (const experiments::MethodSpec& method : methods) {
    // IS(linear) at 20k iterations over 328k items is ~6.5e9 scans; trim its
    // iteration count and report the per-iteration figure, which is the
    // quantity the paper's table compares.
    const int64_t iters =
        method.name == "IS (linear)" ? std::min<int64_t>(iterations, 2000)
                                     : iterations;
    auto timing = experiments::TimeMethod(method, pool.scored, oracle, iters,
                                          repeats, bench::Seed());
    OASIS_CHECK_OK(timing.status());
    const experiments::TimingResult& t = timing.ValueOrDie();
    // Scale the per-run figure to the common iteration count for
    // comparability.
    const double per_run =
        t.cpu_seconds_per_iteration * static_cast<double>(iterations);
    table.AddRow({method.name, experiments::FormatDouble(per_run, 3),
                  experiments::FormatScientific(t.cpu_seconds_per_iteration, 3),
                  experiments::FormatDouble(t.cpu_setup_seconds, 3)});
    std::printf("  timed %s\n", method.name.c_str());
    std::fflush(stdout);
  }
  std::printf("\n");
  table.Print(std::cout);
  return 0;
}
