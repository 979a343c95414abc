// Equivalence tests for the batched / zero-allocation sampling hot path:
//  * OasisSampler's fused step draws each stratum from CurrentInstrumental()
//    and weights it omega_k / v_k, bit for bit;
//  * StepBatch(n) equals n calls to Step() exactly, for every sampler, under
//    an RNG-free and an RNG-consuming (noisy) oracle;
//  * the batched RunTrajectory matches the original per-step driver loop;
//  * the fused OASIS step performs zero heap allocations.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/oasis.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/noisy_oracle.h"
#include "sampling/importance.h"
#include "sampling/oracle_sampler.h"
#include "sampling/passive.h"
#include "sampling/stratified.h"
#include "sampling/trajectory.h"
#include "strata/csf.h"
#include "tests/test_util.h"

namespace {
// Global operator new/delete hooks counting heap allocations, used to verify
// the fused OASIS step allocates nothing. Counting is toggled around the
// measured region only, so unrelated gtest allocations don't interfere.
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* ptr = std::malloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace oasis {
namespace {

void ExpectSnapshotsIdentical(const EstimateSnapshot& a,
                              const EstimateSnapshot& b) {
  EXPECT_EQ(a.f_defined, b.f_defined);
  EXPECT_EQ(a.precision_defined, b.precision_defined);
  EXPECT_EQ(a.recall_defined, b.recall_defined);
  // Exact equality on purpose: the batched and fused paths promise
  // bit-identical estimate sequences, not just close ones.
  EXPECT_EQ(a.f_alpha, b.f_alpha);
  EXPECT_EQ(a.precision, b.precision);
  EXPECT_EQ(a.recall, b.recall);
}

// --- Fused step path vs CurrentInstrumental() -----------------------------

struct FusedStepCase {
  const char* name;
  size_t target_strata;
  int64_t pool_size;
  // All predictions negative: lambda = 0 and F-hat = 0 zero every v* mass,
  // so every step takes the total <= 0 omega fallback.
  bool no_predicted_positives;
  // Arm the degeneracy hook with thresholds that trip within the run, and
  // keep adapting v(t) once degraded (freeze_instrumental_on_degrade off), so
  // the later steps draw under the boosted epsilon floor.
  bool degrade;
};

void PrintTo(const FusedStepCase& c, std::ostream* os) { *os << c.name; }

class OasisStepPathTest : public ::testing::TestWithParam<FusedStepCase> {};

// Algorithm 3, lines 3-6, pinned through the public API alone: before each
// step, v(t) = CurrentInstrumental() (the spec-level OptimalStratified-
// Instrumental + EpsilonGreedyMix over a full posterior recomputation) and a
// twin Rng replays lines 4-5 with the linear-scan draw. The fused step must
// then have observed that very stratum and weighted it omega_k / v_k, bit for
// bit. GroundTruthOracle draws nothing from the Rng, so the twin stays in
// lock-step with the sampler.
TEST_P(OasisStepPathTest, FusedStepDrawsFromCurrentInstrumentalBitForBit) {
  const FusedStepCase& param = GetParam();
  testutil::SyntheticPoolOptions pool_options;
  pool_options.size = param.pool_size;
  pool_options.seed = 321;
  testutil::SyntheticPool pool = testutil::MakeSyntheticPool(pool_options);
  if (param.no_predicted_positives) {
    std::fill(pool.scored.predictions.begin(), pool.scored.predictions.end(),
              uint8_t{0});
  }
  GroundTruthOracle oracle(pool.truth);

  OasisOptions options;
  options.step_path = OasisStepPath::kFused;
  if (param.degrade) {
    options.degrade_on_degeneracy = true;
    options.degraded_epsilon = 0.6;
    options.freeze_instrumental_on_degrade = false;
    options.degeneracy.min_observations = 64;
    options.degeneracy.ess_floor_fraction = 0.9;
    options.degeneracy.tail_mass_ceiling = 2.0;
  }
  LabelCache labels(&oracle);
  const uint64_t seed = 2026;
  auto sampler = OasisSampler::CreateWithCsf(&pool.scored, &labels,
                                             param.target_strata, options,
                                             Rng(seed))
                     .ValueOrDie();
  ASSERT_EQ(sampler->strata().num_strata(), param.target_strata);
  if (param.no_predicted_positives) {
    for (const double lambda : sampler->lambda()) ASSERT_EQ(lambda, 0.0);
    ASSERT_EQ(sampler->initial_f(), 0.0);
  }
  double observed_weight = -1.0;
  sampler->SetObserver(
      [&observed_weight](double weight, bool, bool) { observed_weight = weight; });

  Rng twin(seed);
  for (int step = 0; step < 800; ++step) {
    const std::vector<double> v = sampler->CurrentInstrumental().ValueOrDie();
    const size_t k = twin.NextDiscreteLinear(v);
    sampler->strata().SampleItem(k, twin);
    const int64_t observed_before = sampler->model().labels_observed(k);

    ASSERT_TRUE(sampler->Step().ok());
    ASSERT_EQ(sampler->model().labels_observed(k), observed_before + 1)
        << "step " << step << " did not draw stratum " << k;
    ASSERT_EQ(observed_weight, sampler->strata().weight(k) / v[k])
        << "step " << step;
    if (param.no_predicted_positives && sampler->Estimate().f_defined) {
      ASSERT_EQ(sampler->Estimate().f_alpha, 0.0);
    }
  }
  if (param.degrade) {
    EXPECT_TRUE(sampler->degraded());
    EXPECT_EQ(sampler->active_epsilon(), 0.6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strata, OasisStepPathTest,
    ::testing::Values(
        FusedStepCase{"K1", 1, 4000, false, false},
        FusedStepCase{"K30", 30, 4000, false, false},
        FusedStepCase{"K1000", 1000, 20000, false, false},
        FusedStepCase{"NoPredictedPositives", 30, 4000, true, false},
        FusedStepCase{"DegradedAdaptive", 30, 4000, false, true}),
    [](const ::testing::TestParamInfo<FusedStepCase>& info) {
      return std::string(info.param.name);
    });

// --- StepBatch == n x Step, for every sampler -----------------------------

/// Runs `total` iterations on two identically-seeded samplers, one per-step
/// and one in uneven batches, and expects identical estimates and counters.
void ExpectStepBatchMatchesStep(Sampler& stepwise, Sampler& batched, int total) {
  int done = 0;
  int batch = 1;
  while (done < total) {
    const int n = std::min(batch, total - done);
    for (int i = 0; i < n; ++i) ASSERT_TRUE(stepwise.Step().ok());
    ASSERT_TRUE(batched.StepBatch(n).ok());
    ExpectSnapshotsIdentical(stepwise.Estimate(), batched.Estimate());
    done += n;
    batch = batch * 2 + 1;  // Uneven batch sizes: 1, 3, 7, 15, ...
  }
  EXPECT_EQ(stepwise.iterations(), batched.iterations());
  EXPECT_EQ(stepwise.labels_consumed(), batched.labels_consumed());
}

/// The oracle every StepBatchTest runs against: ground truth (labelling is
/// RNG-free, so the static samplers pre-draw whole chunks) or a NoisyOracle
/// (labelling consumes the sampler's RNG between item draws).
enum class OracleKind { kGroundTruth, kNoisy };

class StepBatchTest : public ::testing::TestWithParam<OracleKind> {
 protected:
  void SetUp() override {
    testutil::SyntheticPoolOptions pool_options;
    pool_options.size = 3000;
    pool_options.seed = 99;
    pool_ = testutil::MakeSyntheticPool(pool_options);
    if (GetParam() == OracleKind::kNoisy) {
      oracle_ = std::make_unique<NoisyOracle>(
          NoisyOracle::FromTruthWithFlipNoise(pool_.truth, 0.05).ValueOrDie());
    } else {
      oracle_ = std::make_unique<GroundTruthOracle>(pool_.truth);
    }
    strata_ = std::make_shared<const Strata>(
        StratifyCsf(pool_.scored.scores, 20, false).ValueOrDie());
  }

  testutil::SyntheticPool pool_;
  std::unique_ptr<Oracle> oracle_;
  std::shared_ptr<const Strata> strata_;
};

INSTANTIATE_TEST_SUITE_P(
    Oracles, StepBatchTest,
    ::testing::Values(OracleKind::kGroundTruth, OracleKind::kNoisy),
    [](const ::testing::TestParamInfo<OracleKind>& info) {
      return std::string(info.param == OracleKind::kNoisy ? "Noisy"
                                                          : "GroundTruth");
    });

TEST_P(StepBatchTest, PassiveMatches) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto a = PassiveSampler::Create(&pool_.scored, &labels_a, 0.5, Rng(5)).ValueOrDie();
  auto b = PassiveSampler::Create(&pool_.scored, &labels_b, 0.5, Rng(5)).ValueOrDie();
  ExpectStepBatchMatchesStep(*a, *b, 500);
}

TEST_P(StepBatchTest, ImportanceMatchesBothBackends) {
  for (const SamplingBackend backend :
       {SamplingBackend::kAliasTable, SamplingBackend::kLinearScan}) {
    ImportanceOptions options;
    options.backend = backend;
    LabelCache labels_a(oracle_.get());
    LabelCache labels_b(oracle_.get());
    auto a = ImportanceSampler::Create(&pool_.scored, &labels_a, options, Rng(6))
                 .ValueOrDie();
    auto b = ImportanceSampler::Create(&pool_.scored, &labels_b, options, Rng(6))
                 .ValueOrDie();
    ExpectStepBatchMatchesStep(*a, *b, 500);
  }
}

TEST_P(StepBatchTest, StratifiedMatches) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto a = StratifiedSampler::Create(&pool_.scored, &labels_a, strata_, 0.5, Rng(8))
               .ValueOrDie();
  auto b = StratifiedSampler::Create(&pool_.scored, &labels_b, strata_, 0.5, Rng(8))
               .ValueOrDie();
  ExpectStepBatchMatchesStep(*a, *b, 500);
}

TEST_P(StepBatchTest, OracleOptimalMatches) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto a = OracleOptimalSampler::Create(&pool_.scored, &labels_a, strata_,
                                        pool_.truth, 0.5, 1e-3, Rng(10))
               .ValueOrDie();
  auto b = OracleOptimalSampler::Create(&pool_.scored, &labels_b, strata_,
                                        pool_.truth, 0.5, 1e-3, Rng(10))
               .ValueOrDie();
  ExpectStepBatchMatchesStep(*a, *b, 500);
}

TEST_P(StepBatchTest, OasisMatches) {
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto a = OasisSampler::Create(&pool_.scored, &labels_a, strata_, OasisOptions{},
                                Rng(9))
               .ValueOrDie();
  auto b = OasisSampler::Create(&pool_.scored, &labels_b, strata_, OasisOptions{},
                                Rng(9))
               .ValueOrDie();
  ExpectStepBatchMatchesStep(*a, *b, 500);
}

TEST_P(StepBatchTest, MultiChunkBatchesMatchStepwise) {
  // One StepBatch of several internal chunks (the uneven-batch tests above
  // stay within one) against the per-step loop, for every static sampler.
  constexpr int kSteps = 1500;
  LabelCache labels_a(oracle_.get());
  LabelCache labels_b(oracle_.get());
  auto passive_a =
      PassiveSampler::Create(&pool_.scored, &labels_a, 0.5, Rng(15))
          .ValueOrDie();
  auto passive_b =
      PassiveSampler::Create(&pool_.scored, &labels_b, 0.5, Rng(15))
          .ValueOrDie();
  LabelCache labels_c(oracle_.get());
  LabelCache labels_d(oracle_.get());
  auto importance_c = ImportanceSampler::Create(&pool_.scored, &labels_c,
                                                ImportanceOptions{}, Rng(16))
                          .ValueOrDie();
  auto importance_d = ImportanceSampler::Create(&pool_.scored, &labels_d,
                                                ImportanceOptions{}, Rng(16))
                          .ValueOrDie();
  LabelCache labels_e(oracle_.get());
  LabelCache labels_f(oracle_.get());
  auto stratified_e =
      StratifiedSampler::Create(&pool_.scored, &labels_e, strata_, 0.5, Rng(17))
          .ValueOrDie();
  auto stratified_f =
      StratifiedSampler::Create(&pool_.scored, &labels_f, strata_, 0.5, Rng(17))
          .ValueOrDie();
  LabelCache labels_g(oracle_.get());
  LabelCache labels_h(oracle_.get());
  auto optimal_g =
      OracleOptimalSampler::Create(&pool_.scored, &labels_g, strata_,
                                   pool_.truth, 0.5, 1e-3, Rng(18))
          .ValueOrDie();
  auto optimal_h =
      OracleOptimalSampler::Create(&pool_.scored, &labels_h, strata_,
                                   pool_.truth, 0.5, 1e-3, Rng(18))
          .ValueOrDie();
  const std::pair<Sampler*, Sampler*> pairs[] = {
      {passive_a.get(), passive_b.get()},
      {importance_c.get(), importance_d.get()},
      {stratified_e.get(), stratified_f.get()},
      {optimal_g.get(), optimal_h.get()}};
  for (const auto& [stepwise, batched] : pairs) {
    SCOPED_TRACE(stepwise->name());
    for (int i = 0; i < kSteps; ++i) ASSERT_TRUE(stepwise->Step().ok());
    ASSERT_TRUE(batched->StepBatch(kSteps).ok());
    ExpectSnapshotsIdentical(stepwise->Estimate(), batched->Estimate());
    EXPECT_EQ(stepwise->iterations(), batched->iterations());
    EXPECT_EQ(stepwise->labels_consumed(), batched->labels_consumed());
  }
}

TEST_P(StepBatchTest, RejectsNegativeAndAcceptsZero) {
  LabelCache labels(oracle_.get());
  auto sampler =
      PassiveSampler::Create(&pool_.scored, &labels, 0.5, Rng(5)).ValueOrDie();
  EXPECT_FALSE(sampler->StepBatch(-1).ok());
  EXPECT_TRUE(sampler->StepBatch(0).ok());
  EXPECT_EQ(sampler->iterations(), 0);
}

// --- Exception safety: mid-batch oracle failure ---------------------------

/// Fallible deterministic oracle that fails every TryLabelBatch call with a
/// (0-based) call index in [fail_from, fail_to) and answers truthfully
/// otherwise — a precisely placed transient outage.
class FailWindowOracle : public Oracle {
 public:
  FailWindowOracle(std::vector<uint8_t> truth, int fail_from, int fail_to)
      : truth_(std::move(truth)), fail_from_(fail_from), fail_to_(fail_to) {}

  bool Label(int64_t item, Rng&) const override {
    return truth_[static_cast<size_t>(item)] != 0;
  }
  double TrueProbability(int64_t item) const override {
    return truth_[static_cast<size_t>(item)] != 0 ? 1.0 : 0.0;
  }
  bool deterministic() const override { return true; }
  bool labelling_consumes_rng() const override { return false; }
  bool fallible() const override { return true; }
  int64_t num_items() const override {
    return static_cast<int64_t>(truth_.size());
  }
  Status TryLabelBatch(std::span<const int64_t> items, Rng&,
                       std::span<uint8_t> out,
                       std::span<uint8_t> resolved) const override {
    for (size_t i = 0; i < resolved.size(); ++i) resolved[i] = 0;
    const int call = calls_++;
    if (call >= fail_from_ && call < fail_to_) {
      return Status::Unavailable("FailWindowOracle: scheduled outage");
    }
    for (size_t i = 0; i < items.size(); ++i) {
      out[i] = truth_[static_cast<size_t>(items[i])];
      resolved[i] = 1;
    }
    return Status::OK();
  }

 private:
  std::vector<uint8_t> truth_;
  int fail_from_;
  int fail_to_;
  mutable int calls_ = 0;
};

TEST_P(StepBatchTest, PassiveMidBatchFailureLeavesNoHalfAppliedState) {
  // The oracle fails exactly the second QueryBatch round-trip: the first
  // StepBatch lands, the second fails as a whole chunk.
  FailWindowOracle flaky(pool_.truth, /*fail_from=*/1, /*fail_to=*/2);
  LabelCache labels(&flaky);
  auto sampler =
      PassiveSampler::Create(&pool_.scored, &labels, 0.5, Rng(33)).ValueOrDie();
  ASSERT_TRUE(sampler->StepBatch(50).ok());
  const Status failed = sampler->StepBatch(100);
  EXPECT_EQ(failed.code(), StatusCode::kUnavailable);
  // No half-applied state: the failed batch moved neither the iteration
  // counter nor the label budget, and the estimator is bit-identical to a
  // twin that stopped cleanly at the last completed step.
  EXPECT_EQ(sampler->iterations(), 50);
  GroundTruthOracle reliable(pool_.truth);
  LabelCache reference_labels(&reliable);
  auto reference = PassiveSampler::Create(&pool_.scored, &reference_labels, 0.5,
                                          Rng(33))
                       .ValueOrDie();
  ASSERT_TRUE(reference->StepBatch(50).ok());
  ExpectSnapshotsIdentical(sampler->Estimate(), reference->Estimate());
  EXPECT_EQ(sampler->labels_consumed(), reference->labels_consumed());

  // The sampler is not poisoned: once the oracle recovers, stepping resumes.
  ASSERT_TRUE(sampler->StepBatch(100).ok());
  EXPECT_EQ(sampler->iterations(), 150);
  EXPECT_TRUE(sampler->Estimate().f_defined);
}

TEST_P(StepBatchTest, FailedChunkOfAMultiChunkBatchIsNotCredited) {
  // One StepBatch spanning three chunks; the oracle fails the second chunk's
  // round trip. Only the first chunk's iterations are credited, and the
  // estimator matches a twin that stepped exactly that chunk.
  constexpr int64_t kChunk = 512;  // Sampler::kQueryBatchChunk.
  FailWindowOracle flaky(pool_.truth, /*fail_from=*/1, /*fail_to=*/2);
  LabelCache labels(&flaky);
  auto sampler =
      PassiveSampler::Create(&pool_.scored, &labels, 0.5, Rng(34)).ValueOrDie();
  EXPECT_EQ(sampler->StepBatch(3 * kChunk).code(), StatusCode::kUnavailable);
  EXPECT_EQ(sampler->iterations(), kChunk);

  GroundTruthOracle reliable(pool_.truth);
  LabelCache reference_labels(&reliable);
  auto reference = PassiveSampler::Create(&pool_.scored, &reference_labels, 0.5,
                                          Rng(34))
                       .ValueOrDie();
  ASSERT_TRUE(reference->StepBatch(kChunk).ok());
  ExpectSnapshotsIdentical(sampler->Estimate(), reference->Estimate());
  EXPECT_EQ(sampler->labels_consumed(), reference->labels_consumed());
}

TEST_P(StepBatchTest, OasisMidBatchFailureLeavesNoHalfAppliedState) {
  // OASIS queries per step (cache hits skip the oracle), so the outage is
  // placed on the 11th oracle round-trip — somewhere inside the big batch.
  FailWindowOracle flaky(pool_.truth, /*fail_from=*/10, /*fail_to=*/11);
  LabelCache labels(&flaky);
  auto sampler = OasisSampler::Create(&pool_.scored, &labels, strata_,
                                      OasisOptions{}, Rng(44))
                     .ValueOrDie();
  const Status failed = sampler->StepBatch(200);
  ASSERT_EQ(failed.code(), StatusCode::kUnavailable);
  const int64_t completed = sampler->iterations();
  EXPECT_GE(completed, 10);
  EXPECT_LT(completed, 200);

  // Invariant: the estimator AND the Bayesian posterior correspond to
  // exactly `completed` fully-applied steps — the failing step contributed
  // nothing (its only trace is the RNG draws it consumed).
  GroundTruthOracle reliable(pool_.truth);
  LabelCache reference_labels(&reliable);
  auto reference = OasisSampler::Create(&pool_.scored, &reference_labels,
                                        strata_, OasisOptions{}, Rng(44))
                       .ValueOrDie();
  for (int64_t i = 0; i < completed; ++i) ASSERT_TRUE(reference->Step().ok());
  ExpectSnapshotsIdentical(sampler->Estimate(), reference->Estimate());
  EXPECT_EQ(sampler->labels_consumed(), reference->labels_consumed());
  const std::vector<double> pi = sampler->PosteriorMeans();
  const std::vector<double> reference_pi = reference->PosteriorMeans();
  ASSERT_EQ(pi.size(), reference_pi.size());
  for (size_t k = 0; k < pi.size(); ++k) EXPECT_EQ(pi[k], reference_pi[k]);

  // Recovery: the outage window is spent, stepping resumes cleanly.
  ASSERT_TRUE(sampler->StepBatch(50).ok());
  EXPECT_EQ(sampler->iterations(), completed + 50);
}

// --- Batched trajectory vs the original per-step driver -------------------

TEST_P(StepBatchTest, TrajectoryMatchesPerStepReferenceLoop) {
  TrajectoryOptions options;
  options.budget = 400;
  options.checkpoint_every = 30;

  LabelCache labels_a(oracle_.get());
  auto batched_sampler = OasisSampler::Create(&pool_.scored, &labels_a, strata_,
                                              OasisOptions{}, Rng(12))
                             .ValueOrDie();
  const Trajectory batched =
      RunTrajectory(*batched_sampler, options).ValueOrDie();

  // Reference: the seed implementation's per-step loop.
  LabelCache labels_b(oracle_.get());
  auto stepwise_sampler = OasisSampler::Create(&pool_.scored, &labels_b, strata_,
                                               OasisOptions{}, Rng(12))
                              .ValueOrDie();
  Trajectory reference;
  for (int64_t b = options.checkpoint_every; b <= options.budget;
       b += options.checkpoint_every) {
    reference.budgets.push_back(b);
  }
  size_t next_checkpoint = 0;
  while (stepwise_sampler->labels_consumed() < options.budget) {
    ASSERT_TRUE(stepwise_sampler->Step().ok());
    const int64_t consumed = stepwise_sampler->labels_consumed();
    const EstimateSnapshot snap = stepwise_sampler->Estimate();
    if (reference.first_defined_budget < 0 && snap.f_defined) {
      reference.first_defined_budget = consumed;
    }
    while (next_checkpoint < reference.budgets.size() &&
           consumed >= reference.budgets[next_checkpoint]) {
      reference.snapshots.push_back(snap);
      ++next_checkpoint;
    }
  }

  EXPECT_EQ(batched.first_defined_budget, reference.first_defined_budget);
  EXPECT_EQ(batched.labels_consumed, options.budget);
  ASSERT_EQ(batched.snapshots.size(), reference.snapshots.size());
  for (size_t i = 0; i < reference.snapshots.size(); ++i) {
    ExpectSnapshotsIdentical(batched.snapshots[i], reference.snapshots[i]);
  }
  EXPECT_EQ(batched.total_iterations, stepwise_sampler->iterations());
}

// --- Zero allocations on the fused hot path -------------------------------

TEST_P(StepBatchTest, FusedStepPerformsZeroHeapAllocations) {
  LabelCache labels(oracle_.get());
  auto sampler = OasisSampler::Create(&pool_.scored, &labels, strata_,
                                      OasisOptions{}, Rng(21))
                     .ValueOrDie();
  // Warm up so any lazily-sized state is in place.
  ASSERT_TRUE(sampler->StepBatch(32).ok());

  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const Status step_status = sampler->StepBatch(1000);
  g_count_allocations.store(false);
  ASSERT_TRUE(step_status.ok());
  EXPECT_EQ(g_allocation_count.load(), 0);

  // Canary: the hook really counts. CurrentInstrumental() returns fresh
  // vectors, so it must register allocations.
  g_allocation_count.store(0);
  g_count_allocations.store(true);
  const Result<std::vector<double>> instrumental =
      sampler->CurrentInstrumental();
  g_count_allocations.store(false);
  ASSERT_TRUE(instrumental.ok());
  EXPECT_GT(g_allocation_count.load(), 0);
}

}  // namespace
}  // namespace oasis
