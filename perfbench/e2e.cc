// End-to-end time-to-delta benchmark program (see perfbench/README.md).
//
//   oasis_e2e --workload stripe-k1000|cora-er|serve-sessions --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Drives the library only through public entry points, with library
// defaults (step path, prior, epsilon, thread counts). Prints one line per
// metric and, last, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. Output checks that fail count as failed operations and make the
// exit code 1.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/random.h"
#include "common/thread_pool.h"
#include "datagen/benchmark_datasets.h"
#include "datagen/dataset.h"
#include "datagen/scenario.h"
#include "er/pipeline.h"
#include "experiments/runner.h"
#include "experiments/scenario_run.h"
#include "experiments/verify.h"
#include "oracle/ground_truth_oracle.h"
#include "oracle/label_cache.h"
#include "oracle/oracle_stack.h"
#include "probes.h"
#include "sampling/trajectory.h"
#include "service/client.h"
#include "service/session_manager.h"
#include "stats/running_stats.h"

namespace perfbench {
namespace {

using oasis::experiments::ErrorCurve;
using oasis::Oracle;
using oasis::Result;
using oasis::Rng;
using oasis::ScoredPool;
using oasis::Status;
using oasis::experiments::MethodSpec;

double Since(int64_t start_ns) { return static_cast<double>(NowNs() - start_ns) * 1e-9; }

/// Quantile q in [0, 1] with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Batch throughput is measured per RunErrorCurve call and reported as the
/// upper quartile of the call rates. On a shared machine other tenants slow
/// some calls down at random; the quieter quartile repeats from run to run,
/// and it also leaves out the first call's cold start (reported on its own
/// as experiments.cold_penalty_s).
constexpr double kQuietRateQuantile = 0.75;

/// Median latencies, and every serve-loop metric, are read per block of
/// kBlockUnits consecutive completed units (repeats, or serve sessions) and
/// reported from the best block. On a shared 4-vCPU VM the same code runs
/// 1.4-1.7x slower in stretches of 0.1-1 s, at random: the per-block
/// median alternates between two levels, and the share of a run spent at
/// the slow one varies from run to run, and with it any whole-run median or
/// quartile. Most runs have a fast stretch at least one block long, so the
/// best block repeats from run to run (least so on stripe-k1000, whose
/// 20-27 ms repeats outlast many fast stretches). The batch p99 is taken over
/// all repeats, since a block of 10 repeats has no p99 of its own. Smaller
/// blocks catch shorter fast stretches; at 10 a serve block still holds
/// about 220 requests.
constexpr size_t kBlockUnits = 10;

/// Prints a per-block series as its spread and, next to it, the whole-run
/// figure, so that stalls the best block leaves out stay visible.
void PrintBlockSeries(const char* name, const std::vector<double>& per_block, double whole_run) {
  std::printf("per-block %s: blocks %zu min %.6g q1 %.6g median %.6g q3 %.6g max %.6g, "
              "whole run %.6g\n",
              name, per_block.size(), Quantile(per_block, 0.0), Quantile(per_block, 0.25),
              Quantile(per_block, 0.5), Quantile(per_block, 0.75), Quantile(per_block, 1.0),
              whole_run);
}

/// Lowest p-th percentile over blocks of latencies.
double BestBlockPercentile(const std::vector<std::vector<double>>& blocks, double p) {
  std::vector<double> percentiles, all;
  for (const std::vector<double>& ms : blocks) {
    if (ms.empty()) continue;
    percentiles.push_back(Quantile(ms, p));
    all.insert(all.end(), ms.begin(), ms.end());
  }
  char name[32];
  std::snprintf(name, sizeof(name), "p%g ms", p * 100);
  PrintBlockSeries(name, percentiles, Quantile(all, p));
  return Quantile(percentiles, 0.0);
}

/// `values` cut into consecutive blocks of kBlockUnits; a partial last block
/// is left out.
std::vector<std::vector<double>> ConsecutiveBlocks(const std::vector<double>& values) {
  std::vector<std::vector<double>> blocks;
  for (size_t first = 0; first + kBlockUnits <= values.size(); first += kBlockUnits) {
    blocks.emplace_back(values.begin() + static_cast<std::ptrdiff_t>(first),
                        values.begin() + static_cast<std::ptrdiff_t>(first + kBlockUnits));
  }
  return blocks;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Metrics, operation counts and output checks of one run.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }

  /// Counts `attempted` operations of which `failed` failed.
  void Attempt(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Attempt(bool ok) { Attempt(1, ok ? 0 : 1); }

  /// An output check: attempted once, failed (and printed) when false.
  void Check(bool ok, const std::string& what) {
    Attempt(ok);
    std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }

  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("metric %-40s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
                ", \"metrics\": {",
                correct() ? "true" : "false", attempted_, failed_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const double value = std::isfinite(e.value) ? e.value : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  e.name.c_str(), value, e.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
/// of them; a layer the workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> metrics = {
      {"datagen.generate_s", "s"},
      {"datagen.sample_pool_s", "s"},
      {"er.featurize_s", "s"},
      {"classify.train_s", "s"},
      {"er.score_s", "s"},
      {"er.pairs_per_s", "pairs/s"},
      {"strata.csf_s", "s"},
      {"strata.k", "count"},
      {"core.sampler_create_s", "s"},
      {"sampling.trajectory_busy_s", "s"},
      {"sampling.self_ns_per_iteration", "ns"},
      {"sampling.iterations", "count"},
      {"sampling.fresh_label_ratio", "ratio"},
      {"oracle.busy_s", "s"},
      {"oracle.calls", "count"},
      {"oracle.items_per_call", "items"},
      {"oracle.retries_per_1k_labels", "count"},
      {"experiments.thread_utilisation", "ratio"},
      {"experiments.cold_penalty_s", "s"},
      {"service.backend_build_s", "s"},
      {"service.concurrent_sessions_per_s", "sessions/s"},
      {"service.codec_us_per_exchange", "us"},
      {"service.bytes_per_exchange", "bytes"},
      {"service.handle_start_ms_p99", "ms"},
      {"service.handle_request_labels_ms_p50", "ms"},
      {"service.handle_request_labels_ms_p99", "ms"},
      {"service.handle_close_ms_p50", "ms"},
  };
  return metrics;
}

void SetLayer(Report& report, const std::string& name, double value) {
  for (const auto& [metric, unit] : PerLayerMetrics()) {
    if (name == metric) {
      report.Set(name, value, unit);
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

/// The smallest budget from which the across-repeat mean |F-hat - F| stays
/// <= delta through the end of the curve, linearly interpolated between the
/// last checkpoint above delta and the next one. A checkpoint counts as
/// within delta only when at least 95% of repeats have a defined estimate
/// (the paper's plotting rule). Empty when the final checkpoint misses delta.
std::optional<double> LabelsToDelta(const std::vector<int64_t>& budgets,
                                    const std::vector<double>& mean_abs_error,
                                    const std::vector<double>& frac_defined,
                                    double delta) {
  auto within = [&](size_t i) {
    return frac_defined[i] >= 0.95 && mean_abs_error[i] <= delta;
  };
  const size_t n = budgets.size();
  if (n == 0 || !within(n - 1)) return std::nullopt;
  size_t first = n - 1;
  while (first > 0 && within(first - 1)) --first;
  if (first == 0) return static_cast<double>(budgets[0]);
  const size_t above = first - 1;
  const double b0 = static_cast<double>(budgets[above]);
  const double b1 = static_cast<double>(budgets[first]);
  const double e0 = mean_abs_error[above];
  const double e1 = mean_abs_error[first];
  if (frac_defined[above] < 0.95 || !(e0 > e1)) return b1;
  return b0 + (e0 - delta) / (e0 - e1) * (b1 - b0);
}

/// One line with the mean |F-hat - F| at every checkpoint.
void PrintCurve(const std::vector<int64_t>& budgets, const std::vector<double>& mean_abs_error) {
  std::printf("curve mean|F-hat - F|:");
  for (size_t i = 0; i < budgets.size(); ++i) {
    std::printf(" %" PRId64 ":%.5f", budgets[i], mean_abs_error[i]);
  }
  std::printf("\n");
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

/// The machine and build every result is recorded with.
void PrintMachine(const Args& args) {
  std::printf(
      "machine {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"telemetry_compiled_in\": %s, \"workload\": "
      "\"%s\", \"seed\": %" PRIu64 ", \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), JsonEscape(CpuModel()).c_str(),
      JsonEscape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
      PERFBENCH_TELEMETRY ? "true" : "false", args.workload.c_str(), args.seed,
      args.seconds, args.trace ? 1 : 0);
}

/// Prints the traced run's per-layer self times and how far their sum is
/// from the measured wall time of the traced phase.
void PrintLayerAccounting(const Tracer& tracer, double traced_wall_s) {
  double accounted = 0.0;
  for (const auto& [layer, seconds] : tracer.SelfSeconds()) {
    std::printf("layer %-40s self %.6f s\n", layer.c_str(), seconds);
    accounted += seconds;
  }
  std::printf("layer-residual wall %.6f s, layers %.6f s, residual %.6f s (%.2f%%)\n",
              traced_wall_s, accounted, traced_wall_s - accounted,
              traced_wall_s > 0 ? 100.0 * (traced_wall_s - accounted) / traced_wall_s : 0.0);
}

// ---------------------------------------------------------------------------
// Repeated runs: the untraced RunErrorCurve path and its traced replay.
// ---------------------------------------------------------------------------

/// Everything one repeated run needs.
struct BatchJob {
  const ScoredPool* pool = nullptr;
  const Oracle* oracle = nullptr;
  double true_f = 0.0;
  MethodSpec method;
  oasis::StackSpec stack;
  int64_t budget = 0;
  int64_t checkpoint_every = 0;
};

oasis::experiments::RunnerOptions RunnerFor(const BatchJob& job, int repeats,
                                            uint64_t base_seed) {
  oasis::experiments::RunnerOptions options;  // library defaults otherwise
  options.repeats = repeats;
  options.base_seed = base_seed;
  options.trajectory.budget = job.budget;
  options.trajectory.checkpoint_every = job.checkpoint_every;
  options.stack = job.stack;
  return options;
}

/// Base seed of the c-th chunk of repeats of a run seeded with `seed`.
uint64_t ChunkSeed(uint64_t seed, int chunk) {
  return Rng::Fork(seed, 0x9e3779b9u + static_cast<uint64_t>(chunk)).NextUint64();
}

/// CPU time of the calling thread.
int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int64_t& RepeatStartCpuNs() {
  thread_local int64_t start = 0;
  return start;
}

struct ChunkRun {
  Result<ErrorCurve> curve = Status::Internal("not run");
  double wall_s = 0.0;
  std::vector<double> latency_s;  // per repeat, worker CPU time
};

/// One untraced RunErrorCurve call. Each repeat's latency is taken from
/// outside, as CPU time of the worker thread that ran it: the factory stamps
/// the start, the progress callback (same thread, once the repeat is done)
/// reads it. CPU time rather than wall time keeps other tenants of the
/// machine, which deschedule workers at random, out of the tail.
ChunkRun RunChunk(const BatchJob& job, int repeats, uint64_t base_seed) {
  ChunkRun run;
  run.latency_s.reserve(static_cast<size_t>(repeats));
  std::mutex mu;
  MethodSpec timed;
  timed.name = job.method.name;
  timed.factory = [&job](const ScoredPool* pool, oasis::LabelCache* labels, Rng rng) {
    RepeatStartCpuNs() = ThreadCpuNs();
    return job.method.factory(pool, labels, rng);
  };
  oasis::experiments::RunnerOptions options = RunnerFor(job, repeats, base_seed);
  options.progress = [&](int, int) {
    const double latency = static_cast<double>(ThreadCpuNs() - RepeatStartCpuNs()) * 1e-9;
    std::lock_guard<std::mutex> lock(mu);
    run.latency_s.push_back(latency);
  };
  const int64_t start = NowNs();
  run.curve = oasis::experiments::RunErrorCurve(timed, *job.pool, *job.oracle,
                                                job.true_f, options);
  run.wall_s = Since(start);
  return run;
}

/// Totals of a traced replay, summed over chunks.
struct ReplayTotals {
  double repeat_busy_s = 0.0;    // sum of per-repeat wall
  double capacity_s = 0.0;       // sum of fan-out wall x threads
  double wall_s = 0.0;           // sum of replay chunk wall
  int64_t iterations = 0;
  int64_t labels = 0;
  OracleTally oracle;
};

/// Per-repeat outcome of a replay, kept for comparisons with sessions.
struct ReplayRepeat {
  std::vector<double> f_alpha;     // per checkpoint
  std::vector<uint8_t> f_defined;  // per checkpoint
  int64_t labels = 0;
  Status status;
};

/// Replays one RunErrorCurve call repeat by repeat through the public calls
/// the runner makes (OracleStackBuilder, LabelCache, the MethodSpec factory,
/// RunTrajectory), on a ThreadPool of the runner's size, with a span around
/// each call and `counting` as the base oracle; then folds the repeats in
/// repeat order exactly as the runner does. The caller checks the result
/// against the untraced curve bit for bit.
Result<ErrorCurve> ReplayChunk(const BatchJob& job, int repeats, uint64_t base_seed,
                               Tracer* tracer, int64_t parent,
                               const Oracle* counting, ReplayTotals* totals,
                               std::vector<ReplayRepeat>* out_repeats = nullptr) {
  const oasis::experiments::RunnerOptions options = RunnerFor(job, repeats, base_seed);
  const size_t checkpoints = static_cast<size_t>(job.budget / job.checkpoint_every);
  const int threads = std::min(oasis::ThreadPool::DefaultThreadCount(), repeats);
  const double weight = 1.0 / threads;
  std::vector<ReplayRepeat> slots(static_cast<size_t>(repeats));
  std::vector<int64_t> busy_ns(static_cast<size_t>(repeats), 0);
  std::vector<int64_t> iterations(static_cast<size_t>(repeats), 0);
  std::vector<OracleTally> oracle(static_cast<size_t>(repeats));
  const int64_t start = NowNs();
  {
    ScopedSpan fanout(tracer, "experiments.fanout", parent);
    oasis::ThreadPool pool(threads);
    pool.ParallelFor(0, repeats, [&](int64_t r) {
      const size_t i = static_cast<size_t>(r);
      const int64_t repeat_start = NowNs();
      ScopedSpan repeat(tracer, "experiments.repeat", fanout.id(), r, weight);
      ReplayRepeat& slot = slots[i];
      Result<oasis::OracleStack> stack = oasis::OracleStackBuilder(job.stack)
                                             .ForkSeeds(static_cast<uint64_t>(r))
                                             .Build(counting);
      if (!stack.ok()) {
        slot.status = stack.status();
        return;
      }
      oasis::LabelCache labels(&stack.ValueOrDie().top());
      Result<std::unique_ptr<oasis::Sampler>> sampler = Status::Internal("not built");
      {
        ScopedSpan create(tracer, "core.sampler_create", repeat.id(), r, weight);
        sampler = job.method.factory(job.pool, &labels,
                                     Rng::Fork(base_seed, static_cast<uint64_t>(r)));
      }
      if (!sampler.ok()) {
        slot.status = sampler.status();
        return;
      }
      Result<oasis::Trajectory> trajectory = Status::Internal("not run");
      {
        ScopedSpan run(tracer, "sampling.trajectory", repeat.id(), r, weight);
        const OracleTally before = CountingOracle::ThreadTally();
        trajectory = oasis::RunTrajectory(*sampler.ValueOrDie(), options.trajectory);
        const OracleTally after = CountingOracle::ThreadTally();
        oracle[i] = {after.busy_ns - before.busy_ns, after.calls - before.calls,
                     after.items - before.items};
        run.SetSubLayer("oracle", oracle[i].busy_ns);
      }
      if (!trajectory.ok()) {
        slot.status = trajectory.status();
        return;
      }
      const oasis::Trajectory& t = trajectory.ValueOrDie();
      if (t.snapshots.size() != checkpoints) {
        slot.status = Status::Internal("replay: unexpected checkpoint count");
        return;
      }
      for (const oasis::EstimateSnapshot& snap : t.snapshots) {
        slot.f_alpha.push_back(snap.f_alpha);
        slot.f_defined.push_back(snap.f_defined ? 1 : 0);
      }
      slot.labels = t.labels_consumed;
      iterations[i] = t.total_iterations;
      busy_ns[i] = NowNs() - repeat_start;
    });
  }
  const double wall = Since(start);
  for (const ReplayRepeat& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }

  ScopedSpan reduce(tracer, "experiments.reduce", parent);
  std::vector<oasis::RunningStats> abs_error(checkpoints);
  std::vector<oasis::RunningStats> estimate(checkpoints);
  std::vector<int64_t> defined(checkpoints, 0);
  for (const ReplayRepeat& slot : slots) {
    for (size_t i = 0; i < checkpoints; ++i) {
      if (slot.f_defined[i] == 0) continue;
      abs_error[i].Add(std::abs(slot.f_alpha[i] - job.true_f));
      estimate[i].Add(slot.f_alpha[i]);
      ++defined[i];
    }
  }
  ErrorCurve curve;
  curve.method = job.method.name;
  curve.repeats = repeats;
  for (size_t i = 0; i < checkpoints; ++i) {
    curve.budgets.push_back(static_cast<int64_t>(i + 1) * job.checkpoint_every);
    curve.mean_abs_error.push_back(abs_error[i].mean());
    curve.stddev.push_back(estimate[i].stddev());
    curve.mean_estimate.push_back(estimate[i].mean());
    curve.frac_defined.push_back(static_cast<double>(defined[i]) /
                                 static_cast<double>(repeats));
  }
  for (const ReplayRepeat& slot : slots) {
    curve.final_estimates.push_back(slot.f_alpha.back());
    curve.final_defined.push_back(slot.f_defined.back());
  }

  totals->wall_s += wall;
  totals->capacity_s += wall * threads;
  for (size_t i = 0; i < slots.size(); ++i) {
    totals->repeat_busy_s += static_cast<double>(busy_ns[i]) * 1e-9;
    totals->iterations += iterations[i];
    totals->labels += slots[i].labels;
    totals->oracle.busy_ns += oracle[i].busy_ns;
    totals->oracle.calls += oracle[i].calls;
    totals->oracle.items += oracle[i].items;
  }
  if (out_repeats != nullptr) *out_repeats = std::move(slots);
  return curve;
}

/// Bit-for-bit equality of the fields a replay reproduces.
bool SameCurve(const ErrorCurve& a, const ErrorCurve& b) {
  return a.budgets == b.budgets && SameBits(a.mean_abs_error, b.mean_abs_error) &&
         SameBits(a.stddev, b.stddev) && SameBits(a.mean_estimate, b.mean_estimate) &&
         SameBits(a.frac_defined, b.frac_defined) &&
         SameBits(a.final_estimates, b.final_estimates) &&
         a.final_defined == b.final_defined;
}

/// Pools chunk curves into one curve over all their repeats: count-weighted
/// means, pooled sample standard deviation, concatenated final estimates.
ErrorCurve PoolCurves(const std::vector<const ErrorCurve*>& chunks) {
  ErrorCurve pooled = *chunks.front();
  const size_t checkpoints = pooled.budgets.size();
  int total_repeats = 0;
  for (const ErrorCurve* c : chunks) total_repeats += c->repeats;
  pooled.repeats = total_repeats;
  pooled.final_estimates.clear();
  pooled.final_defined.clear();
  for (const ErrorCurve* c : chunks) {
    pooled.final_estimates.insert(pooled.final_estimates.end(),
                                  c->final_estimates.begin(), c->final_estimates.end());
    pooled.final_defined.insert(pooled.final_defined.end(), c->final_defined.begin(),
                                c->final_defined.end());
  }
  for (size_t i = 0; i < checkpoints; ++i) {
    double n_total = 0.0, error_sum = 0.0, estimate_sum = 0.0;
    for (const ErrorCurve* c : chunks) {
      const double n = std::round(c->frac_defined[i] * c->repeats);
      n_total += n;
      error_sum += n * c->mean_abs_error[i];
      estimate_sum += n * c->mean_estimate[i];
    }
    const double mean = n_total > 0 ? estimate_sum / n_total : 0.0;
    double m2 = 0.0;
    for (const ErrorCurve* c : chunks) {
      const double n = std::round(c->frac_defined[i] * c->repeats);
      if (n < 1) continue;
      const double d = c->mean_estimate[i] - mean;
      m2 += (n - 1) * c->stddev[i] * c->stddev[i] + n * d * d;
    }
    pooled.mean_abs_error[i] = n_total > 0 ? error_sum / n_total : 0.0;
    pooled.mean_estimate[i] = mean;
    pooled.stddev[i] = n_total > 1 ? std::sqrt(m2 / (n_total - 1)) : 0.0;
    pooled.frac_defined[i] = n_total / total_repeats;
  }
  return pooled;
}

/// K of an OASIS method spec, read from its public name ("OASIS-<K>").
double StrataOf(const MethodSpec& method) {
  const size_t dash = method.name.rfind('-');
  return dash == std::string::npos ? 0.0 : std::atof(method.name.c_str() + dash + 1);
}

/// Per-layer metrics of the sampling, oracle and runner layers, from a
/// traced replay.
void SetReplayLayers(Report& report, const Tracer& tracer, const ReplayTotals& t) {
  const double trajectory_s = tracer.TotalSeconds("sampling.trajectory");
  const double oracle_s = static_cast<double>(t.oracle.busy_ns) * 1e-9;
  const double iterations = static_cast<double>(std::max<int64_t>(t.iterations, 1));
  SetLayer(report, "core.sampler_create_s", tracer.TotalSeconds("core.sampler_create"));
  SetLayer(report, "sampling.trajectory_busy_s", trajectory_s);
  SetLayer(report, "sampling.self_ns_per_iteration",
           (trajectory_s - oracle_s) * 1e9 / iterations);
  SetLayer(report, "sampling.iterations", static_cast<double>(t.iterations));
  SetLayer(report, "sampling.fresh_label_ratio", static_cast<double>(t.labels) / iterations);
  SetLayer(report, "oracle.busy_s", oracle_s);
  SetLayer(report, "oracle.calls", static_cast<double>(t.oracle.calls));
  SetLayer(report, "oracle.items_per_call",
           static_cast<double>(t.oracle.items) /
               static_cast<double>(std::max<int64_t>(t.oracle.calls, 1)));
  SetLayer(report, "experiments.thread_utilisation",
           t.capacity_s > 0 ? t.repeat_busy_s / t.capacity_s : 0.0);
}

// ---------------------------------------------------------------------------
// Batch workloads: stripe-k1000 and cora-er.
// ---------------------------------------------------------------------------

/// A pool ready to sample: what set-up produces.
struct Prepared {
  std::unique_ptr<oasis::datagen::ScenarioPool> scenario;  // stripe-k1000
  std::unique_ptr<oasis::datagen::BenchmarkPool> er;       // cora-er
  std::unique_ptr<Oracle> oracle;
  const ScoredPool* scored = nullptr;
  double true_f = 0.0;
  MethodSpec method;
};

struct BatchPlan {
  double delta = 0.0;
  int64_t budget = 0;
  int64_t checkpoint_every = 100;
  int chunk_repeats = 0;  // repeats per RunErrorCurve call
  int label_chunks = 0;   // calls whose repeats feed the label metrics
  int setup_runs = 0;     // set-ups per run; setup_s is their median
};

constexpr int64_t kStripeStrata = 1000;
constexpr int64_t kCoraStrata = 30;
/// cora-er samples one fixed pool, like an evaluator facing one dataset; the
/// workload seed drives the sampling streams. (A pool per seed would mix the
/// spread between synthetic datasets into the label metrics.)
constexpr uint64_t kCoraPoolSeed = 20170626;

Result<Prepared> SetupStripe(uint64_t seed, Tracer* tracer) {
  OASIS_ASSIGN_OR_RETURN(oasis::datagen::ScenarioSpec spec,
                         oasis::datagen::ScenarioByName("stripe-f90"));
  spec.seed = seed;
  Prepared p;
  {
    ScopedSpan span(tracer, "datagen.generate", 0);
    OASIS_ASSIGN_OR_RETURN(oasis::datagen::ScenarioPool pool,
                           oasis::datagen::GenerateScenario(spec));
    p.scenario = std::make_unique<oasis::datagen::ScenarioPool>(std::move(pool));
  }
  OASIS_ASSIGN_OR_RETURN(p.oracle, oasis::datagen::MakeScenarioOracle(*p.scenario));
  p.scored = &p.scenario->scored;
  p.true_f = p.scenario->true_f;
  ScopedSpan span(tracer, "strata.csf", 0);
  OASIS_ASSIGN_OR_RETURN(p.method, oasis::experiments::MakeMethodByName(
                                       "oasis", spec.alpha, *p.scored, kStripeStrata));
  return p;
}

Result<Prepared> SetupCora() {
  OASIS_ASSIGN_OR_RETURN(const oasis::datagen::DatasetProfile profile,
                         oasis::datagen::ProfileByName("cora"));
  Prepared p;
  OASIS_ASSIGN_OR_RETURN(
      oasis::datagen::BenchmarkPool pool,
      oasis::datagen::BuildBenchmarkPool(
          profile, oasis::datagen::ClassifierKind::kLinearSvm, false, kCoraPoolSeed));
  p.er = std::make_unique<oasis::datagen::BenchmarkPool>(std::move(pool));
  p.oracle = std::make_unique<oasis::GroundTruthOracle>(p.er->truth);
  p.scored = &p.er->scored;
  p.true_f = p.er->true_measures.f_alpha;
  OASIS_ASSIGN_OR_RETURN(p.method, oasis::experiments::MakeMethodByName(
                                       "oasis", 0.5, *p.scored, kCoraStrata));
  return p;
}

/// The cora front-end stage by stage, through the public calls that
/// BuildBenchmarkPool composes, each under its own span. The scored pairs
/// must equal the untraced pool bit for bit. (The operating-point fix that
/// follows inside BuildBenchmarkPool is internal and changes predictions
/// only; it is not replayed.)
Status TraceCoraStages(Tracer* tracer, const Prepared& reference, Report& report) {
  OASIS_ASSIGN_OR_RETURN(const oasis::datagen::DatasetProfile profile,
                         oasis::datagen::ProfileByName("cora"));
  Rng rng(kCoraPoolSeed);
  Result<oasis::datagen::ErDataset> dataset = Status::Internal("not generated");
  {
    ScopedSpan span(tracer, "datagen.generate", 0);
    dataset = oasis::datagen::GenerateDatasetForProfile(profile, rng.NextUint64());
  }
  OASIS_RETURN_NOT_OK(dataset.status());
  const oasis::datagen::ErDataset& data = dataset.ValueOrDie();
  Rng train_rng = rng.Split();
  Result<oasis::er::PairPool> training_pairs = Status::Internal("not sampled");
  {
    ScopedSpan span(tracer, "datagen.sample_training", 0);
    training_pairs = oasis::datagen::SampleTrainingPairs(
        data, profile.train_matches, profile.train_nonmatches,
        profile.train_hard_fraction, train_rng);
  }
  OASIS_RETURN_NOT_OK(training_pairs.status());
  Result<oasis::er::ErPipeline> pipeline = Status::Internal("not built");
  {
    ScopedSpan span(tracer, "er.featurize", 0);
    pipeline = oasis::er::ErPipeline::Create(&data.left, &data.right);
  }
  OASIS_RETURN_NOT_OK(pipeline.status());
  {
    ScopedSpan span(tracer, "classify.train", 0);
    oasis::er::TrainingSet training;
    training.pairs = training_pairs.ValueOrDie().pairs();
    training.labels = training_pairs.ValueOrDie().truth();
    OASIS_RETURN_NOT_OK(pipeline.ValueOrDie().Train(
        training,
        oasis::datagen::MakeClassifier(oasis::datagen::ClassifierKind::kLinearSvm),
        train_rng));
  }
  Rng pool_rng = rng.Split();
  Result<oasis::er::PairPool> pairs = Status::Internal("not sampled");
  {
    ScopedSpan span(tracer, "datagen.sample_pool", 0);
    pairs = oasis::datagen::SamplePool(data, profile.pool_size, profile.pool_matches,
                                       profile.hard_negative_fraction, pool_rng);
  }
  OASIS_RETURN_NOT_OK(pairs.status());
  Result<ScoredPool> scored = Status::Internal("not scored");
  {
    ScopedSpan span(tracer, "er.score", 0);
    scored = pipeline.ValueOrDie().ScorePairs(pairs.ValueOrDie().pairs());
  }
  OASIS_RETURN_NOT_OK(scored.status());
  report.Check(SameBits(scored.ValueOrDie().scores, reference.scored->scores) &&
                   pairs.ValueOrDie().truth() == reference.er->truth,
               "traced ER stages reproduce BuildBenchmarkPool's scores");
  ScopedSpan span(tracer, "strata.csf", 0);
  return oasis::experiments::MakeMethodByName("oasis", 0.5, *reference.scored,
                                              kCoraStrata)
      .status();
}

/// stripe-k1000's output checks: the six checks of the verify harness.
void CheckStripe(const Prepared& p, const ErrorCurve& pooled, const BatchPlan& plan,
                 uint64_t seed, Report& report) {
  oasis::experiments::ScenarioRunOptions options;
  options.method = "oasis";
  options.budget = plan.budget;
  options.checkpoint_every = plan.checkpoint_every;
  options.repeats = pooled.repeats;
  options.seed = seed;
  options.target_strata = kStripeStrata;
  Result<oasis::experiments::ScenarioRunResult> summarized =
      oasis::experiments::SummarizeScenarioCurve(*p.scenario, options, pooled);
  if (!summarized.ok()) {
    report.Check(false, "summarise run: " + summarized.status().ToString());
    return;
  }
  const oasis::experiments::ScenarioRunResult& run = summarized.ValueOrDie();
  Result<oasis::experiments::VerifyReport> verdict = oasis::experiments::VerifyRun(
      run.summary, &run.curve, oasis::experiments::VerifyOptions{});
  if (!verdict.ok()) {
    report.Check(false, "verify run: " + verdict.status().ToString());
    return;
  }
  for (const oasis::experiments::VerifyCheck& check : verdict.ValueOrDie().checks) {
    std::printf("verify %s: %s\n", check.name.c_str(), check.detail.c_str());
    report.Check(check.passed, "verify " + check.name);
  }
}

/// cora-er's output check: the final mean estimate sits within delta of the
/// pool's true F.
void CheckCora(const Prepared& p, const ErrorCurve& pooled, const BatchPlan& plan,
               uint64_t, Report& report) {
  const double bias = std::abs(pooled.mean_estimate.back() - p.true_f);
  std::printf("final mean F-hat %.6f, true F %.6f, |bias| %.6f\n",
              pooled.mean_estimate.back(), p.true_f, bias);
  report.Check(bias <= plan.delta, "final mean F-hat within delta of true F");
}

using CheckFn = std::function<void(const Prepared&, const ErrorCurve&, const BatchPlan&,
                                   uint64_t, Report&)>;

/// Untraced: set-up (several times), then RunErrorCurve calls of
/// `chunk_repeats` repeats until both `label_chunks` calls are done and
/// `--seconds` have passed. Traced: the same set-up and label chunks
/// untraced, a first-vs-second-call probe, then a traced set-up and a
/// traced replay of the label chunks that must reproduce them bit for bit.
int RunBatchWorkload(const Args& args, const BatchPlan& plan,
                     const std::function<Result<Prepared>()>& setup,
                     const std::function<Status(Tracer*, const Prepared&, Report&)>& traced_setup,
                     const CheckFn& check_outputs) {
  Report report;
  std::vector<double> setup_s;
  Prepared prepared;
  bool deterministic = true;
  for (int i = 0; i < plan.setup_runs; ++i) {
    const int64_t start = NowNs();
    Result<Prepared> p = setup();
    setup_s.push_back(Since(start));
    if (!p.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", p.status().ToString().c_str());
      return 2;
    }
    if (i == 0) {
      prepared = std::move(p).ValueOrDie();
    } else {
      deterministic = deterministic &&
                      SameBits(p.ValueOrDie().scored->scores, prepared.scored->scores);
    }
  }
  report.Check(deterministic, "set-up is a pure function of the seed");
  std::printf("pool %" PRId64 " items, true F %.6f, method %s\n", prepared.scored->size(),
              prepared.true_f, prepared.method.name.c_str());

  BatchJob job;
  job.pool = prepared.scored;
  job.oracle = prepared.oracle.get();
  job.true_f = prepared.true_f;
  job.method = prepared.method;
  job.budget = plan.budget;
  job.checkpoint_every = plan.checkpoint_every;

  // Cold-process cost: the first RunErrorCurve call in the process against
  // an identical second call (traced runs only; untraced runs pay it inside
  // their first chunk, which the upper-quartile rate leaves out).
  double cold_penalty_s = 0.0;
  if (args.trace) {
    const ChunkRun first = RunChunk(job, plan.chunk_repeats, ChunkSeed(args.seed, 0));
    const ChunkRun second = RunChunk(job, plan.chunk_repeats, ChunkSeed(args.seed, 0));
    cold_penalty_s = first.wall_s - second.wall_s;
    std::printf("cold-call first %.6f s, second %.6f s\n", first.wall_s, second.wall_s);
    report.Check(first.curve.ok() && second.curve.ok() &&
                     SameCurve(first.curve.ValueOrDie(), second.curve.ValueOrDie()),
                 "identical RunErrorCurve calls agree bit for bit");
  }

  constexpr double kMaxPhaseSeconds = 120.0;
  std::vector<ChunkRun> runs;
  const int64_t phase_start = NowNs();
  for (int c = 0;; ++c) {
    const double elapsed = Since(phase_start);
    if (c >= plan.label_chunks &&
        (args.trace || elapsed >= args.seconds || elapsed >= kMaxPhaseSeconds)) {
      break;
    }
    runs.push_back(RunChunk(job, plan.chunk_repeats, ChunkSeed(args.seed, c)));
    const ChunkRun& run = runs.back();
    report.Attempt(plan.chunk_repeats, run.curve.ok() ? 0 : plan.chunk_repeats);
    if (!run.curve.ok()) {
      std::printf("chunk %d failed: %s\n", c, run.curve.status().ToString().c_str());
    }
  }
  // Peak memory of set-up and sampling, before the output checks allocate.
  const double peak_rss_mb = PeakRssMiB();
  std::vector<const ErrorCurve*> label_curves;
  std::vector<double> label_rates, session_rates, latency_ms;
  for (size_t c = 0; c < runs.size(); ++c) {
    const ChunkRun& run = runs[c];
    if (!run.curve.ok()) continue;
    if (c < static_cast<size_t>(plan.label_chunks)) {
      label_curves.push_back(&run.curve.ValueOrDie());
    }
    label_rates.push_back(static_cast<double>(plan.chunk_repeats * plan.budget) / run.wall_s);
    session_rates.push_back(plan.chunk_repeats / run.wall_s);
    for (double l : run.latency_s) latency_ms.push_back(l * 1e3);
  }
  if (label_curves.size() != static_cast<size_t>(plan.label_chunks)) {
    report.Check(false, "every label chunk ran");
    report.Print();
    return 1;
  }
  const ErrorCurve pooled = PoolCurves(label_curves);
  const std::optional<double> to_delta =
      LabelsToDelta(pooled.budgets, pooled.mean_abs_error, pooled.frac_defined, plan.delta);
  PrintCurve(pooled.budgets, pooled.mean_abs_error);
  report.Check(to_delta.has_value(), "mean |F-hat - F| reaches delta within the budget");
  check_outputs(prepared, pooled, plan, args.seed, report);

  const double setup_median = Median(setup_s);
  std::printf("per-call labels/s:");
  for (double r : label_rates) std::printf(" %.6g", r);
  std::printf("\n");
  const double labels_per_s = Quantile(label_rates, kQuietRateQuantile);
  const double labels_to_delta = to_delta.value_or(static_cast<double>(plan.budget));
  std::printf("chunks %zu x %d repeats x %" PRId64 " labels; label metrics over %d repeats\n",
              runs.size(), plan.chunk_repeats, plan.budget, pooled.repeats);
  std::printf("request latency samples %zu (one per repeat, worker CPU time)\n",
              latency_ms.size());

  if (!args.trace) {
    report.Set("setup_s", setup_median, "s");
    report.Set("labels_per_s", labels_per_s, "labels/s");
    report.Set("labels_to_delta", labels_to_delta, "labels");
    report.Set("seconds_to_delta",
               setup_median + pooled.repeats * labels_to_delta / labels_per_s, "s");
    report.Set("final_abs_error", pooled.mean_abs_error.back(), "F");
    report.Set("sessions_per_s", Quantile(session_rates, kQuietRateQuantile), "sessions/s");
    report.Set("request_p50_ms", BestBlockPercentile(ConsecutiveBlocks(latency_ms), 0.50), "ms");
    report.Set("request_p99_ms", Quantile(latency_ms, 0.99), "ms");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    report.Set("success_frac",
               1.0 - static_cast<double>(report.failed()) / report.attempted(), "ratio");
    report.Print();
    return report.correct() ? 0 : 1;
  }

  Tracer tracer(static_cast<size_t>(plan.label_chunks) * plan.chunk_repeats * 4 + 64);
  const int64_t traced_start = NowNs();
  const Status traced = traced_setup(&tracer, prepared, report);
  report.Check(traced.ok(), "traced set-up: " + traced.ToString());
  const CountingOracle counting(prepared.oracle.get());
  ReplayTotals totals;
  bool same = true;
  double untraced_s = 0.0;
  for (int c = 0; c < plan.label_chunks; ++c) {
    ScopedSpan chunk(&tracer, "experiments.run_error_curve", 0, c);
    Result<ErrorCurve> replay =
        ReplayChunk(job, plan.chunk_repeats, ChunkSeed(args.seed, c), &tracer,
                    chunk.id(), &counting, &totals);
    same = same && replay.ok() &&
           SameCurve(replay.ValueOrDie(), runs[static_cast<size_t>(c)].curve.ValueOrDie());
    untraced_s += runs[static_cast<size_t>(c)].wall_s;
  }
  const double traced_wall_s = Since(traced_start);
  report.Check(same, "traced replay reproduces every chunk's curve bit for bit");
  std::printf("trace-overhead sampling traced %.6f s untraced %.6f s overhead %.6f s (%.2f%%)\n",
              totals.wall_s, untraced_s, totals.wall_s - untraced_s,
              100.0 * (totals.wall_s - untraced_s) / untraced_s);
  PrintLayerAccounting(tracer, traced_wall_s);

  for (const auto& [metric, unit] : PerLayerMetrics()) report.Set(metric, 0.0, unit);
  SetLayer(report, "datagen.generate_s", tracer.TotalSeconds("datagen.generate"));
  SetLayer(report, "datagen.sample_pool_s", tracer.TotalSeconds("datagen.sample_pool"));
  SetLayer(report, "er.featurize_s", tracer.TotalSeconds("er.featurize"));
  SetLayer(report, "classify.train_s", tracer.TotalSeconds("classify.train"));
  const double score_s = tracer.TotalSeconds("er.score");
  SetLayer(report, "er.score_s", score_s);
  SetLayer(report, "er.pairs_per_s",
           score_s > 0 ? static_cast<double>(prepared.scored->size()) / score_s : 0.0);
  SetLayer(report, "strata.csf_s", tracer.TotalSeconds("strata.csf"));
  SetLayer(report, "strata.k", StrataOf(prepared.method));
  SetReplayLayers(report, tracer, totals);
  SetLayer(report, "experiments.cold_penalty_s", cold_penalty_s);
  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve-sessions: a closed loop of clients against one SessionManager.
// ---------------------------------------------------------------------------

constexpr const char* kServeScenario = "imbalance-1e3";
constexpr int64_t kServeBudget = 2000;
constexpr int64_t kServeSlice = 100;  // labels per request, = checkpoint_every
constexpr int64_t kServeStrata = 30;
constexpr int kServeLabelSessions = 2000;  // streams feeding the label metrics
constexpr double kServeDelta = 0.15;
constexpr int kServeSetupRuns = 11;
/// The gated loop has one client. With two or more, start_session latency
/// (and with it throughput) flips between a fast and a slow regime at random,
/// per process, on a shared VM: page faults and munmap shootdowns across the
/// active client threads. That is too unsteady to bound, so the traced run
/// reports the two-client rate as service.concurrent_sessions_per_s instead.
constexpr int kServeClients = 1;
constexpr int kServeConcurrentClients = 2;
constexpr uint64_t kWarmupStream = uint64_t{1} << 40;

oasis::StackSpec ServeStack() {
  oasis::StackSpec stack;
  oasis::FaultInjectionOptions faults;
  faults.transient_failure_rate = 0.05;
  stack.fault_injection = faults;
  stack.remote = oasis::RemoteOracleOptions{};
  oasis::RetryPolicy retry;
  retry.max_attempts = 8;
  stack.retry = retry;
  return stack;
}

oasis::service::SessionSpec ServeSpec(uint64_t seed, uint64_t stream) {
  oasis::service::SessionSpec spec;
  spec.scenario = kServeScenario;
  spec.method = "oasis";
  spec.budget = kServeBudget;
  spec.checkpoint_every = kServeSlice;
  spec.strata = kServeStrata;
  spec.seed = seed;
  spec.stream = stream;
  spec.stack = ServeStack();
  return spec;
}

constexpr size_t kServeCheckpoints = static_cast<size_t>(kServeBudget / kServeSlice);

/// What the client saw of one session.
struct SessionRecord {
  uint64_t stream = 0;
  bool ok = true;
  int64_t slices = 0;          // request_labels replies
  bool slices_on_grid = true;  // reply k reported exactly k * slice labels
  oasis::service::EstimateReport final_report;
  int64_t end_ns = 0;
};

/// One request's client-side latency and when it ended, in microseconds
/// since the loop started.
struct RequestSample {
  float ms = 0.0f;
  int32_t end_us = 0;
};

/// One client thread's (or the merged loop's) observations. Storage is
/// reserved before the clients start, so the benchmark's own bookkeeping
/// does not allocate inside the loop: the library's allocation pattern, and
/// with it glibc's heap trimming, is then left as users see it.
struct LoopResult {
  std::vector<SessionRecord> sessions;
  // Per-reply estimates of the label-metric streams, stream-major
  // (kServeLabelSessions x kServeCheckpoints; merged loop only).
  std::vector<double> label_f_alpha;
  std::vector<uint8_t> label_f_defined;
  std::vector<RequestSample> requests_ms;
  std::vector<double> handle_ms[3];  // by RequestKind (traced loops only)
  double codec_ns = 0.0;             // round trip minus Handle, summed
  double bytes = 0.0;
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t start_ns = 0;
  double wall_s = 0.0;
};

/// Runs `clients` closed-loop clients for `seconds` (and at least until
/// `min_sessions` streams were claimed). Each client repeats start_session,
/// request_labels (wait) in slices until done, close_session, on the next
/// unclaimed stream. With a tracer the transport is a TimingTransport and
/// every session and request gets a span.
LoopResult RunClosedLoop(oasis::service::SessionManager* manager, uint64_t seed,
                         double seconds, int clients, int min_sessions, Tracer* tracer) {
  constexpr double kMaxLoopSeconds = 60.0;
  const double weight = 1.0 / clients;
  oasis::service::InProcessTransport plain(manager);
  TimingTransport timing(manager, tracer, weight);
  oasis::service::Transport* transport =
      tracer == nullptr ? static_cast<oasis::service::Transport*>(&plain) : &timing;
  std::atomic<uint64_t> next_stream{0};
  std::vector<LoopResult> per_client(static_cast<size_t>(clients));
  const size_t reserve_sessions = static_cast<size_t>((seconds + 5) * 2000);
  for (LoopResult& local : per_client) {
    local.sessions.reserve(reserve_sessions);
    local.requests_ms.reserve(reserve_sessions * (kServeCheckpoints + 2));
  }
  LoopResult merged;
  merged.label_f_alpha.assign(kServeLabelSessions * kServeCheckpoints, 0.0);
  merged.label_f_defined.assign(kServeLabelSessions * kServeCheckpoints, 0);
  merged.start_ns = NowNs();
  {
    ScopedSpan loop(tracer, "service.closed_loop", 0);
    const int64_t loop_id = loop.id();
    auto client_body = [&](LoopResult* local) {
      oasis::service::ServiceClient client(transport);
      auto timed = [&](const char* name, int64_t parent, uint64_t stream, auto&& call) {
        ScopedSpan request(tracer, name, parent, static_cast<int64_t>(stream), weight);
        TimingTransport::CurrentParent() = request.id();
        const int64_t start = NowNs();
        auto result = call();
        const int64_t elapsed = NowNs() - start;
        local->requests_ms.push_back(
            {static_cast<float>(static_cast<double>(elapsed) * 1e-6),
             static_cast<int32_t>((start + elapsed - merged.start_ns) / 1000)});
        ++local->requests;
        if (!result.ok()) ++local->errors;
        if (tracer != nullptr) {
          const ExchangeTally& x = TimingTransport::LastExchange();
          local->codec_ns += static_cast<double>(elapsed - x.handle_ns);
          local->bytes += static_cast<double>(x.bytes);
          if (x.kind != kOtherKind) {
            local->handle_ms[x.kind].push_back(static_cast<double>(x.handle_ns) * 1e-6);
          }
        }
        return result;
      };
      while (true) {
        const double elapsed = Since(merged.start_ns);
        if ((elapsed >= seconds && next_stream.load() >= static_cast<uint64_t>(min_sessions)) ||
            elapsed >= kMaxLoopSeconds) {
          break;
        }
        SessionRecord record;
        record.stream = next_stream.fetch_add(1);
        const uint64_t stream = record.stream;
        ScopedSpan session(tracer, "service.session", loop_id,
                           static_cast<int64_t>(stream), weight);
        const Result<int64_t> id = timed("service.start_session", session.id(), stream, [&] {
          return client.Start(ServeSpec(seed, stream));
        });
        if (id.ok()) {
          const int64_t max_slices = kServeBudget / kServeSlice + 1;
          for (int64_t slice = 0; slice < max_slices; ++slice) {
            const Result<oasis::service::LabelArrived> arrived =
                timed("service.request_labels", session.id(), stream,
                      [&] { return client.RequestLabels(id.ValueOrDie(), kServeSlice); });
            if (!arrived.ok()) {
              record.ok = false;
              break;
            }
            const oasis::service::EstimateReport& report = arrived.ValueOrDie().report;
            if (stream < static_cast<uint64_t>(kServeLabelSessions) &&
                record.slices < static_cast<int64_t>(kServeCheckpoints)) {
              const size_t at = stream * kServeCheckpoints + static_cast<size_t>(record.slices);
              merged.label_f_alpha[at] = report.f_alpha;
              merged.label_f_defined[at] = report.f_defined ? 1 : 0;
            }
            ++record.slices;
            record.slices_on_grid = record.slices_on_grid &&
                                    report.labels_consumed == record.slices * kServeSlice;
            if (report.done) break;
          }
          const Result<oasis::service::EstimateReport> closed =
              timed("service.close_session", session.id(), stream,
                    [&] { return client.Close(id.ValueOrDie()); });
          if (closed.ok()) {
            record.final_report = closed.ValueOrDie();
          } else {
            record.ok = false;
          }
        } else {
          record.ok = false;
        }
        record.end_ns = NowNs();
        local->sessions.push_back(record);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(client_body, &per_client[static_cast<size_t>(c)]);
    }
    for (std::thread& t : threads) t.join();
  }
  merged.wall_s = Since(merged.start_ns);
  for (LoopResult& local : per_client) {
    merged.sessions.insert(merged.sessions.end(), local.sessions.begin(), local.sessions.end());
    merged.requests_ms.insert(merged.requests_ms.end(), local.requests_ms.begin(),
                              local.requests_ms.end());
    for (int k = 0; k < 3; ++k) {
      merged.handle_ms[k].insert(merged.handle_ms[k].end(), local.handle_ms[k].begin(),
                                 local.handle_ms[k].end());
    }
    merged.codec_ns += local.codec_ns;
    merged.bytes += local.bytes;
    merged.requests += local.requests;
    merged.errors += local.errors;
  }
  std::sort(merged.sessions.begin(), merged.sessions.end(),
            [](const SessionRecord& a, const SessionRecord& b) { return a.stream < b.stream; });
  return merged;
}

/// The serve loop cut into blocks of kBlockUnits sessions in the order they
/// completed, about 15 ms each at one client. A block runs from the end of
/// the previous block's last session to the end of its own last session,
/// and holds the requests that ended in that span. Sessions after the last
/// whole block are left out.
struct LoopBlocks {
  std::vector<double> labels_per_s;
  std::vector<double> sessions_per_s;
  std::vector<std::vector<double>> request_ms;
};

LoopBlocks CutBlocks(const LoopResult& loop) {
  std::vector<std::pair<int64_t, double>> ends;  // (end_ns, labels charged)
  for (const SessionRecord& s : loop.sessions) {
    ends.emplace_back(s.end_ns, static_cast<double>(s.final_report.labels_consumed));
  }
  std::sort(ends.begin(), ends.end());
  std::vector<RequestSample> requests = loop.requests_ms;
  std::sort(requests.begin(), requests.end(),
            [](const RequestSample& a, const RequestSample& b) { return a.end_us < b.end_us; });
  LoopBlocks blocks;
  int64_t from_ns = loop.start_ns;
  size_t next_request = 0;
  for (size_t first = 0; first + kBlockUnits <= ends.size(); first += kBlockUnits) {
    const int64_t to_ns = ends[first + kBlockUnits - 1].first;
    const double seconds = static_cast<double>(std::max<int64_t>(to_ns - from_ns, 1)) * 1e-9;
    double labels = 0.0;
    for (size_t i = first; i < first + kBlockUnits; ++i) labels += ends[i].second;
    blocks.labels_per_s.push_back(labels / seconds);
    blocks.sessions_per_s.push_back(static_cast<double>(kBlockUnits) / seconds);
    std::vector<double>& ms = blocks.request_ms.emplace_back();
    const int64_t to_us = (to_ns - loop.start_ns) / 1000;
    for (; next_request < requests.size() && requests[next_request].end_us <= to_us;
         ++next_request) {
      ms.push_back(requests[next_request].ms);
    }
    from_ns = to_ns;
  }
  return blocks;
}

/// Highest labels (or sessions) per second over the loop's blocks.
double BestBlockRate(const LoopResult& loop, bool labels) {
  const LoopBlocks blocks = CutBlocks(loop);
  const std::vector<double>& rates = labels ? blocks.labels_per_s : blocks.sessions_per_s;
  double total = 0.0;
  for (const SessionRecord& s : loop.sessions) {
    total += labels ? static_cast<double>(s.final_report.labels_consumed) : 1.0;
  }
  PrintBlockSeries(labels ? "labels/s" : "sessions/s", rates, total / loop.wall_s);
  return Quantile(rates, 1.0);
}

/// Two loops' replies for the streams both completed agree bit for bit.
bool SameReplies(const LoopResult& a, const LoopResult& b) {
  if (!SameBits(a.label_f_alpha, b.label_f_alpha) || a.label_f_defined != b.label_f_defined) {
    return false;
  }
  const size_t n = std::min(a.sessions.size(), b.sessions.size());
  for (size_t i = 0; i < n; ++i) {
    const SessionRecord& x = a.sessions[i];
    const SessionRecord& y = b.sessions[i];
    if (x.stream != y.stream || x.slices != y.slices ||
        !SameBits(x.final_report.f_alpha, y.final_report.f_alpha) ||
        x.final_report.labels_consumed != y.final_report.labels_consumed) {
      return false;
    }
  }
  return n > 0;
}

/// Output checks of a loop against the reference batch run: each session
/// ran to its budget with every slice landing on a checkpoint, and its final
/// estimate equals repeat `stream` of RunErrorCurve bit for bit.
void CheckSessions(const LoopResult& loop, const ErrorCurve& reference,
                   const std::string& label, Report& report) {
  int64_t bad_shape = 0, bad_estimate = 0;
  for (const SessionRecord& s : loop.sessions) {
    bool shape = s.ok && s.final_report.done && !s.final_report.truncated &&
                 s.final_report.labels_consumed == kServeBudget &&
                 s.slices_on_grid && s.slices == kServeBudget / kServeSlice;
    const size_t r = static_cast<size_t>(s.stream);
    const bool estimate =
        r < reference.final_estimates.size() &&
        reference.final_defined[r] == (s.final_report.f_defined ? 1 : 0) &&
        (!s.final_report.f_defined ||
         SameBits(reference.final_estimates[r], s.final_report.f_alpha));
    report.Attempt(shape && estimate);
    if (!shape) ++bad_shape;
    if (!estimate) ++bad_estimate;
  }
  std::printf("%s: %zu sessions, %" PRId64 " off-budget, %" PRId64
              " differing from the batch run\n",
              label.c_str(), loop.sessions.size(), bad_shape, bad_estimate);
  if (bad_shape + bad_estimate > 0) report.Check(false, label + " sessions match the batch run");
}

int RunServeWorkload(const Args& args) {
  Report report;
  const int clients = kServeClients;

  // Set-up: manager start-up plus the scenario backend build, which the
  // first session on the scenario pays; one warm-up session each time.
  std::vector<double> setup_s, backend_s;
  std::unique_ptr<oasis::service::SessionManager> manager;
  for (int i = 0; i < kServeSetupRuns; ++i) {
    const int64_t start = NowNs();
    auto fresh = std::make_unique<oasis::service::SessionManager>();
    oasis::service::InProcessTransport transport(fresh.get());
    oasis::service::ServiceClient client(&transport);
    const int64_t start_call = NowNs();
    const Result<int64_t> id = client.Start(ServeSpec(args.seed, kWarmupStream));
    backend_s.push_back(Since(start_call));
    const bool ok = id.ok() && client.RequestLabels(id.ValueOrDie(), 0).ok() &&
                    client.Close(id.ValueOrDie()).ok();
    setup_s.push_back(Since(start));
    if (!ok) {
      std::fprintf(stderr, "set-up: warm-up session failed\n");
      return 2;
    }
    manager = std::move(fresh);
  }

  const LoopResult loop =
      RunClosedLoop(manager.get(), args.seed, args.seconds, clients, kServeLabelSessions, nullptr);
  // Peak memory of set-up and the loop, before the reference run allocates.
  const double peak_rss_mb = PeakRssMiB();
  std::optional<LoopResult> traced_loop, concurrent_loop;
  // Spans per session: the session, its requests and their handles, plus
  // four per replayed repeat.
  Tracer tracer(args.trace ? static_cast<size_t>((args.seconds + 5) * 1000) * clients *
                                     (2 * kServeCheckpoints + 6) +
                                 4 * kServeLabelSessions
                           : 0);
  if (args.trace) {
    traced_loop = RunClosedLoop(manager.get(), args.seed, args.seconds, clients,
                                kServeLabelSessions, &tracer);
    concurrent_loop = RunClosedLoop(
        manager.get(), args.seed, args.seconds / 2,
        std::min(kServeConcurrentClients, oasis::ThreadPool::DefaultThreadCount()), 0,
        nullptr);
  }
  report.Attempt(loop.requests, loop.errors);
  for (const std::optional<LoopResult>* extra : {&traced_loop, &concurrent_loop}) {
    if (*extra) report.Attempt((*extra)->requests, (*extra)->errors);
  }
  std::printf("clients %d, sessions %zu, requests %" PRId64 ", error replies %" PRId64
              ", wall %.3f s\n",
              clients, loop.sessions.size(), loop.requests, loop.errors, loop.wall_s);
  std::printf("request latency samples %zu\n", loop.requests_ms.size());

  // Reference batch run over every stream the loops used, outside the
  // timed window.
  const int64_t prep_start = NowNs();
  Result<oasis::datagen::ScenarioSpec> scenario = oasis::datagen::ScenarioByName(kServeScenario);
  if (!scenario.ok()) return 2;
  Result<oasis::datagen::ScenarioPool> pool = Status::Internal("not generated");
  {
    ScopedSpan span(args.trace ? &tracer : nullptr, "datagen.generate", 0);
    pool = oasis::datagen::GenerateScenario(scenario.ValueOrDie());
  }
  if (!pool.ok()) return 2;
  const oasis::datagen::ScenarioPool& scenario_pool = pool.ValueOrDie();
  Result<std::unique_ptr<Oracle>> oracle = oasis::datagen::MakeScenarioOracle(scenario_pool);
  if (!oracle.ok()) return 2;
  Result<MethodSpec> method = Status::Internal("not built");
  {
    ScopedSpan span(args.trace ? &tracer : nullptr, "strata.csf", 0);
    method = oasis::experiments::MakeMethodByName("oasis", scenario_pool.spec.alpha,
                                                  scenario_pool.scored, kServeStrata);
  }
  if (!method.ok()) return 2;
  const double traced_prep_s = Since(prep_start);
  BatchJob job;
  job.pool = &scenario_pool.scored;
  job.oracle = oracle.ValueOrDie().get();
  job.true_f = scenario_pool.true_f;
  job.method = method.ValueOrDie();
  job.stack = ServeStack();
  job.budget = kServeBudget;
  job.checkpoint_every = kServeSlice;
  size_t streams = loop.sessions.size();
  if (traced_loop) streams = std::max(streams, traced_loop->sessions.size());
  if (concurrent_loop) streams = std::max(streams, concurrent_loop->sessions.size());
  const Result<ErrorCurve> reference = oasis::experiments::RunErrorCurve(
      job.method, *job.pool, *job.oracle, job.true_f,
      RunnerFor(job, static_cast<int>(streams), args.seed));
  if (!reference.ok()) {
    report.Check(false, "reference batch run: " + reference.status().ToString());
    report.Print();
    return 1;
  }
  CheckSessions(loop, reference.ValueOrDie(), "untraced loop", report);

  // Label metrics over the first kServeLabelSessions streams, from the
  // estimates the request_labels replies carried.
  const size_t checkpoints = kServeCheckpoints;
  std::vector<oasis::RunningStats> abs_error(checkpoints);
  std::vector<int64_t> defined(checkpoints, 0);
  bool complete = loop.sessions.size() >= static_cast<size_t>(kServeLabelSessions);
  for (size_t s = 0; complete && s < static_cast<size_t>(kServeLabelSessions); ++s) {
    complete = loop.sessions[s].slices == static_cast<int64_t>(checkpoints);
    for (size_t i = 0; complete && i < checkpoints; ++i) {
      if (loop.label_f_defined[s * checkpoints + i] == 0) continue;
      abs_error[i].Add(std::abs(loop.label_f_alpha[s * checkpoints + i] - job.true_f));
      ++defined[i];
    }
  }
  report.Check(complete, "label-metric sessions all completed");
  std::vector<int64_t> budgets;
  std::vector<double> mean_abs_error, frac_defined;
  for (size_t i = 0; i < checkpoints; ++i) {
    budgets.push_back(static_cast<int64_t>(i + 1) * kServeSlice);
    mean_abs_error.push_back(abs_error[i].mean());
    frac_defined.push_back(static_cast<double>(defined[i]) / kServeLabelSessions);
  }
  const std::optional<double> to_delta =
      LabelsToDelta(budgets, mean_abs_error, frac_defined, kServeDelta);
  PrintCurve(budgets, mean_abs_error);
  report.Check(to_delta.has_value(), "mean |F-hat - F| reaches delta within the budget");

  if (!args.trace) {
    const double setup = Median(setup_s);
    const double labels_per_s = BestBlockRate(loop, true);
    const double labels_to_delta = to_delta.value_or(static_cast<double>(kServeBudget));
    report.Set("setup_s", setup, "s");
    report.Set("labels_per_s", labels_per_s, "labels/s");
    report.Set("labels_to_delta", labels_to_delta, "labels");
    report.Set("seconds_to_delta",
               setup + kServeLabelSessions * labels_to_delta / labels_per_s, "s");
    report.Set("final_abs_error", mean_abs_error.back(), "F");
    report.Set("sessions_per_s", BestBlockRate(loop, false), "sessions/s");
    const LoopBlocks blocks = CutBlocks(loop);
    report.Set("request_p50_ms", BestBlockPercentile(blocks.request_ms, 0.50), "ms");
    report.Set("request_p99_ms", BestBlockPercentile(blocks.request_ms, 0.99), "ms");
    report.Set("peak_rss_mb", peak_rss_mb, "MiB");
    report.Set("success_frac",
               1.0 - static_cast<double>(report.failed()) / report.attempted(), "ratio");
    report.Print();
    return report.correct() ? 0 : 1;
  }

  const LoopResult& traced = *traced_loop;
  CheckSessions(traced, reference.ValueOrDie(), "traced loop", report);
  CheckSessions(*concurrent_loop, reference.ValueOrDie(), "concurrent loop", report);
  report.Check(SameReplies(loop, traced), "traced loop reproduces the session replies bit for bit");
  const double per_session = loop.wall_s / std::max<size_t>(loop.sessions.size(), 1);
  std::printf("trace-overhead loop traced %.6f s for %zu sessions, untraced %.6f s per "
              "session, overhead %.6f s (%.2f%%)\n",
              traced.wall_s, traced.sessions.size(), per_session,
              traced.wall_s - per_session * traced.sessions.size(),
              100.0 * (traced.wall_s / (per_session * traced.sessions.size()) - 1.0));

  // Sampling and oracle layers: a traced replay of the label-metric streams
  // with the same stack, which must reproduce those sessions' replies.
  const CountingOracle counting(job.oracle);
  ReplayTotals totals;
  std::vector<ReplayRepeat> repeats;
  const int64_t replay_start = NowNs();
  Result<ErrorCurve> replay = Status::Internal("not run");
  {
    ScopedSpan span(&tracer, "experiments.run_error_curve", 0);
    replay = ReplayChunk(job, kServeLabelSessions, args.seed, &tracer, span.id(), &counting,
                         &totals, &repeats);
  }
  const double replay_s = Since(replay_start);
  bool same = replay.ok();
  for (size_t s = 0; same && s < repeats.size(); ++s) {
    const auto first = static_cast<std::ptrdiff_t>(s * kServeCheckpoints);
    const auto last = first + static_cast<std::ptrdiff_t>(kServeCheckpoints);
    same = SameBits(repeats[s].f_alpha,
                    std::vector<double>(loop.label_f_alpha.begin() + first,
                                        loop.label_f_alpha.begin() + last)) &&
           std::equal(repeats[s].f_defined.begin(), repeats[s].f_defined.end(),
                      loop.label_f_defined.begin() + first, loop.label_f_defined.begin() + last) &&
           repeats[s].labels == loop.sessions[s].final_report.labels_consumed;
  }
  report.Check(same, "traced batch replay reproduces the sessions' replies");
  PrintLayerAccounting(tracer, traced_prep_s + traced.wall_s + replay_s);

  for (const auto& [metric, unit] : PerLayerMetrics()) report.Set(metric, 0.0, unit);
  SetLayer(report, "datagen.generate_s", tracer.TotalSeconds("datagen.generate"));
  SetLayer(report, "strata.csf_s", tracer.TotalSeconds("strata.csf"));
  SetLayer(report, "strata.k", StrataOf(job.method));
  SetReplayLayers(report, tracer, totals);
  const ErrorCurve& ref = reference.ValueOrDie();
  SetLayer(report, "oracle.retries_per_1k_labels",
           ref.has_fault_stats ? ref.mean_retries.back() * 1000.0 / kServeBudget : 0.0);
  SetLayer(report, "service.backend_build_s", Median(backend_s));
  SetLayer(report, "service.concurrent_sessions_per_s",
           BestBlockRate(*concurrent_loop, false));
  const double exchanges = static_cast<double>(std::max<int64_t>(traced.requests, 1));
  SetLayer(report, "service.codec_us_per_exchange", traced.codec_ns * 1e-3 / exchanges);
  SetLayer(report, "service.bytes_per_exchange", traced.bytes / exchanges);
  SetLayer(report, "service.handle_start_ms_p99", Quantile(traced.handle_ms[kStartKind], 0.99));
  SetLayer(report, "service.handle_request_labels_ms_p50",
           Quantile(traced.handle_ms[kLabelsKind], 0.50));
  SetLayer(report, "service.handle_request_labels_ms_p99",
           Quantile(traced.handle_ms[kLabelsKind], 0.99));
  SetLayer(report, "service.handle_close_ms_p50", Quantile(traced.handle_ms[kCloseKind], 0.50));
  if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  report.Print();
  return report.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: oasis_e2e --workload stripe-k1000|cora-er|serve-sessions "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  PrintMachine(args);
  const uint64_t seed = args.seed;
  if (args.workload == "stripe-k1000") {
    BatchPlan plan;
    plan.delta = 0.015;
    plan.budget = 3000;
    plan.chunk_repeats = 100;
    plan.label_chunks = 30;
    plan.setup_runs = 21;
    return RunBatchWorkload(
        args, plan, [seed] { return SetupStripe(seed, nullptr); },
        [seed](Tracer* tracer, const Prepared& reference, Report& report) {
          Result<Prepared> traced = SetupStripe(seed, tracer);
          OASIS_RETURN_NOT_OK(traced.status());
          report.Check(SameBits(traced.ValueOrDie().scored->scores, reference.scored->scores),
                       "traced set-up reproduces the pool");
          return Status::OK();
        },
        CheckStripe);
  }
  if (args.workload == "cora-er") {
    BatchPlan plan;
    plan.delta = 0.005;
    plan.budget = 4000;
    plan.chunk_repeats = 250;
    plan.label_chunks = 24;
    plan.setup_runs = 3;
    return RunBatchWorkload(
        args, plan, [] { return SetupCora(); }, TraceCoraStages,
        CheckCora);
  }
  if (args.workload == "serve-sessions") return RunServeWorkload(args);
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
