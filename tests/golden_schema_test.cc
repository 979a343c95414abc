// Golden locks on the on-disk interchange formats: the curves-CSV header
// (base columns plus every optional group), the RunSummary JSON schema, and
// the telemetry exports (Prometheus text, metrics JSON, trace JSON).
// These files are the contract between oasis_run, oasis_verify, and any
// external tooling — a diff here is a BREAKING format change and must bump
// RunSummary::schema_version / telemetry_schema_version, or extend (never
// rename or reorder) the columns.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/csv.h"
#include "telemetry/export.h"
#include "experiments/runner.h"
#include "experiments/summary.h"

namespace oasis {
namespace experiments {
namespace {

std::string FirstLine(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// A minimal two-checkpoint curve with every optional column group enabled.
ErrorCurve FullyLoadedCurve() {
  ErrorCurve curve;
  curve.method = "OASIS-30";
  curve.budgets = {100, 200};
  curve.mean_abs_error = {0.05, 0.025};
  curve.stddev = {0.06, 0.03};
  curve.mean_estimate = {0.88, 0.895};
  curve.frac_defined = {1.0, 1.0};
  curve.repeats = 2;
  curve.has_remote_cost = true;
  curve.mean_round_trips = {10.0, 20.0};
  curve.mean_simulated_seconds = {1.5, 3.0};
  curve.mean_label_cost = {0.1, 0.2};
  curve.has_fault_stats = true;
  curve.mean_retries = {3.0, 6.0};
  curve.mean_give_ups = {0.0, 1.0};
  curve.has_degeneracy_stats = true;
  curve.mean_ess = {80.0, 150.0};
  curve.final_estimates = {0.87, 0.91};
  curve.final_defined = {1, 1};
  return curve;
}

TEST(GoldenSchemaTest, CurvesCsvBaseHeaderIsLocked) {
  const std::string path = "/tmp/oasis_golden_schema_base.csv";
  ErrorCurve curve;
  curve.method = "Passive";
  curve.budgets = {100};
  curve.mean_abs_error = {0.1};
  curve.stddev = {0.1};
  curve.mean_estimate = {0.5};
  curve.frac_defined = {1.0};
  curve.repeats = 1;
  ASSERT_TRUE(WriteCurvesCsv(path, {curve}).ok());
  EXPECT_EQ(FirstLine(path),
            "method,labels,mean_abs_error,stddev,mean_estimate,frac_defined");
  std::remove(path.c_str());
}

TEST(GoldenSchemaTest, CurvesCsvFullHeaderIsLocked) {
  const std::string path = "/tmp/oasis_golden_schema_full.csv";
  ASSERT_TRUE(WriteCurvesCsv(path, {FullyLoadedCurve()}).ok());
  EXPECT_EQ(FirstLine(path),
            "method,labels,mean_abs_error,stddev,mean_estimate,frac_defined,"
            "round_trips,sim_seconds,label_cost,retries,give_ups,ess");
  std::remove(path.c_str());
}

TEST(GoldenSchemaTest, CurvesCsvRoundTripsEveryColumnGroup) {
  const std::string path = "/tmp/oasis_golden_schema_roundtrip.csv";
  const ErrorCurve curve = FullyLoadedCurve();
  ASSERT_TRUE(WriteCurvesCsv(path, {curve}).ok());
  const std::vector<ErrorCurve> curves = ReadCurvesCsv(path).ValueOrDie();
  std::remove(path.c_str());
  ASSERT_EQ(curves.size(), 1u);
  const ErrorCurve& read = curves[0];
  EXPECT_EQ(read.method, curve.method);
  EXPECT_EQ(read.budgets, curve.budgets);
  EXPECT_EQ(read.mean_abs_error, curve.mean_abs_error);
  EXPECT_TRUE(read.has_remote_cost);
  EXPECT_EQ(read.mean_label_cost, curve.mean_label_cost);
  EXPECT_TRUE(read.has_fault_stats);
  EXPECT_EQ(read.mean_retries, curve.mean_retries);
  EXPECT_TRUE(read.has_degeneracy_stats);
  EXPECT_EQ(read.mean_ess, curve.mean_ess);
}

/// A deterministic summary touching every field with distinctive values.
RunSummary GoldenSummary() {
  RunSummary summary;
  summary.scenario = "stripe-f90";
  summary.method = "OASIS-30";
  summary.alpha = 0.5;
  summary.pool_size = 20000;
  summary.scenario_seed = 11;
  summary.run_seed = 7;
  summary.true_f = 0.875;
  summary.budget = 1000;
  summary.repeats = 2;
  summary.final_mean_estimate = 0.875;
  summary.final_mean_abs_error = 0.125;
  summary.final_stddev = 0.125;
  summary.final_frac_defined = 1.0;
  summary.expect_sis_degeneracy = false;
  summary.degeneracy_monitored = true;
  summary.degeneracy_tripped = false;
  summary.final_ess_fraction = 0.25;
  summary.max_weight_share = 0.0625;
  summary.verify_tolerance = 0.03125;
  summary.final_estimates = {0.75, 1.0};
  summary.final_defined = {1, 1};
  return summary;
}

TEST(GoldenSchemaTest, RunSummaryJsonIsLockedByteForByte) {
  // The golden text below IS the schema. All values were chosen to be exact
  // in binary floating point (dyadic rationals), so %.17g prints them in
  // their shortest form and the lock stays byte-stable across compilers.
  const std::string expected =
      "{\n"
      "  \"schema_version\": 1,\n"
      "  \"scenario\": \"stripe-f90\",\n"
      "  \"method\": \"OASIS-30\",\n"
      "  \"alpha\": 0.5,\n"
      "  \"pool_size\": 20000,\n"
      "  \"scenario_seed\": 11,\n"
      "  \"run_seed\": 7,\n"
      "  \"true_f\": 0.875,\n"
      "  \"budget\": 1000,\n"
      "  \"repeats\": 2,\n"
      "  \"final_mean_estimate\": 0.875,\n"
      "  \"final_mean_abs_error\": 0.125,\n"
      "  \"final_stddev\": 0.125,\n"
      "  \"final_frac_defined\": 1,\n"
      "  \"expect_sis_degeneracy\": false,\n"
      "  \"degeneracy_monitored\": true,\n"
      "  \"degeneracy_tripped\": false,\n"
      "  \"final_ess_fraction\": 0.25,\n"
      "  \"max_weight_share\": 0.0625,\n"
      "  \"verify_tolerance\": 0.03125,\n"
      "  \"final_estimates\": [0.75,1],\n"
      "  \"final_defined\": [1,1]\n"
      "}\n";
  EXPECT_EQ(RunSummaryToJson(GoldenSummary()), expected);
}

TEST(GoldenSchemaTest, RunSummaryJsonRoundTripsExactly) {
  const RunSummary golden = GoldenSummary();
  const RunSummary parsed =
      ParseRunSummaryJson(RunSummaryToJson(golden)).ValueOrDie();
  // Re-serialising the parse must reproduce the bytes: proves the reader
  // consumes exactly what the writer emits, with no value drift.
  EXPECT_EQ(RunSummaryToJson(parsed), RunSummaryToJson(golden));
}

TEST(GoldenSchemaTest, UnknownJsonFieldsAreRejected) {
  std::string text = RunSummaryToJson(GoldenSummary());
  text.insert(text.find("  \"scenario\""), "  \"stray_field\": 3,\n");
  const auto result = ParseRunSummaryJson(text);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("stray_field"), std::string::npos);
}

TEST(GoldenSchemaTest, MissingJsonFieldsAreRejected) {
  std::string text = RunSummaryToJson(GoldenSummary());
  const size_t pos = text.find("  \"true_f\": 0.875,\n");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, std::string("  \"true_f\": 0.875,\n").size());
  EXPECT_FALSE(ParseRunSummaryJson(text).ok());
}

TEST(GoldenSchemaTest, UnsupportedSchemaVersionIsRejected) {
  std::string text = RunSummaryToJson(GoldenSummary());
  const std::string v1 = "\"schema_version\": 1";
  text.replace(text.find(v1), v1.size(), "\"schema_version\": 2");
  EXPECT_FALSE(ParseRunSummaryJson(text).ok());
}

TEST(GoldenSchemaTest, IntegerFieldsRefuseFractionsAndOutOfRangeValues) {
  const std::string golden = RunSummaryToJson(GoldenSummary());
  for (const std::string field : {"schema_version", "pool_size", "scenario_seed",
                                  "run_seed", "budget", "repeats"}) {
    const std::string key = "\"" + field + "\": ";
    const size_t value_begin = golden.find(key) + key.size();
    const size_t value_end = golden.find(',', value_begin);
    for (const std::string hostile :
         {"1.5", "1e300", "-1e300", "99999999999999999999", "inf", "nan"}) {
      SCOPED_TRACE(field + " = " + hostile);
      std::string text = golden;
      text.replace(value_begin, value_end - value_begin, hostile);
      const auto result = ParseRunSummaryJson(text);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find(field), std::string::npos)
          << result.status().message();
    }
  }
  // Seeds are unsigned: a negative one is out of range, not wrapped.
  std::string text = golden;
  const std::string seed = "\"run_seed\": 7";
  text.replace(text.find(seed), seed.size(), "\"run_seed\": -1");
  EXPECT_FALSE(ParseRunSummaryJson(text).ok());
}

TEST(GoldenSchemaTest, IntegerFieldsAcceptAnyIntegralSpellingAndFull64BitSeeds) {
  std::string text = RunSummaryToJson(GoldenSummary());
  const std::string budget = "\"budget\": 1000";
  text.replace(text.find(budget), budget.size(), "\"budget\": 1e3");
  EXPECT_EQ(ParseRunSummaryJson(text).ValueOrDie().budget, 1000);

  RunSummary wide = GoldenSummary();
  wide.scenario_seed = std::numeric_limits<uint64_t>::max();
  wide.run_seed = (uint64_t{1} << 63) + 1;  // Not a double.
  const RunSummary parsed =
      ParseRunSummaryJson(RunSummaryToJson(wide)).ValueOrDie();
  EXPECT_EQ(parsed.scenario_seed, wide.scenario_seed);
  EXPECT_EQ(parsed.run_seed, wide.run_seed);
}

TEST(GoldenSchemaTest, WriteReadFileRoundTrip) {
  const std::string path = "/tmp/oasis_golden_schema_summary.json";
  const RunSummary golden = GoldenSummary();
  ASSERT_TRUE(WriteRunSummaryJson(path, golden).ok());
  const RunSummary read = ReadRunSummaryJson(path).ValueOrDie();
  std::remove(path.c_str());
  EXPECT_EQ(RunSummaryToJson(read), RunSummaryToJson(golden));
  EXPECT_FALSE(ReadRunSummaryJson(path).ok());
}

// --- Telemetry export formats ----------------------------------------------
//
// Byte-for-byte locks on the Prometheus text exposition and the metrics/trace
// JSON schemas. All values are dyadic rationals, which %.17g prints in their
// exact shortest form on every compiler, so these goldens are byte-stable.
// A diff here is a BREAKING change for any dashboard or trace viewer
// consuming the artifacts and must bump telemetry_schema_version.

/// A small registry exercising every metric type, labelled families, and
/// histogram overflow.
std::unique_ptr<telemetry::MetricRegistry> GoldenRegistry() {
  auto registry = std::make_unique<telemetry::MetricRegistry>();
  registry->AddCounter("oasis_golden_steps_total", "Steps taken.").Add(3);
  registry
      ->AddCounter("oasis_golden_tasks_total", "Tasks by kind.",
                   {{"kind", "own"}})
      .Add(2);
  registry
      ->AddCounter("oasis_golden_tasks_total", "Tasks by kind.",
                   {{"kind", "steal"}})
      .Add(1);
  registry->AddGauge("oasis_golden_ess", "Live ESS.").Set(0.25);
  telemetry::Histogram& weight = registry->AddHistogram(
      "oasis_golden_weight", "Importance weight.", {0.5, 2.0});
  weight.Observe(0.25);  // bucket le=0.5
  weight.Observe(1.0);   // bucket le=2
  weight.Observe(4.0);   // +Inf overflow
  return registry;
}

TEST(GoldenSchemaTest, PrometheusTextFormatIsLocked) {
  EXPECT_EQ(telemetry::PrometheusText(*GoldenRegistry()),
            "# HELP oasis_golden_steps_total Steps taken.\n"
            "# TYPE oasis_golden_steps_total counter\n"
            "oasis_golden_steps_total 3\n"
            "# HELP oasis_golden_tasks_total Tasks by kind.\n"
            "# TYPE oasis_golden_tasks_total counter\n"
            "oasis_golden_tasks_total{kind=\"own\"} 2\n"
            "oasis_golden_tasks_total{kind=\"steal\"} 1\n"
            "# HELP oasis_golden_ess Live ESS.\n"
            "# TYPE oasis_golden_ess gauge\n"
            "oasis_golden_ess 0.25\n"
            "# HELP oasis_golden_weight Importance weight.\n"
            "# TYPE oasis_golden_weight histogram\n"
            "oasis_golden_weight_bucket{le=\"0.5\"} 1\n"
            "oasis_golden_weight_bucket{le=\"2\"} 2\n"
            "oasis_golden_weight_bucket{le=\"+Inf\"} 3\n"
            "oasis_golden_weight_sum 5.25\n"
            "oasis_golden_weight_count 3\n");
}

TEST(GoldenSchemaTest, MetricsJsonSchemaIsLocked) {
  EXPECT_EQ(
      telemetry::MetricsJson(*GoldenRegistry()),
      "{\n"
      "  \"telemetry_schema_version\": 1,\n"
      "  \"metrics\": [\n"
      "    {\"name\": \"oasis_golden_steps_total\", \"type\": \"counter\", "
      "\"help\": \"Steps taken.\", \"labels\": {}, \"value\": 3},\n"
      "    {\"name\": \"oasis_golden_tasks_total\", \"type\": \"counter\", "
      "\"help\": \"Tasks by kind.\", \"labels\": {\"kind\": \"own\"}, "
      "\"value\": 2},\n"
      "    {\"name\": \"oasis_golden_tasks_total\", \"type\": \"counter\", "
      "\"help\": \"Tasks by kind.\", \"labels\": {\"kind\": \"steal\"}, "
      "\"value\": 1},\n"
      "    {\"name\": \"oasis_golden_ess\", \"type\": \"gauge\", \"help\": "
      "\"Live ESS.\", \"labels\": {}, \"value\": 0.25},\n"
      "    {\"name\": \"oasis_golden_weight\", \"type\": \"histogram\", "
      "\"help\": \"Importance weight.\", \"labels\": {}, \"buckets\": "
      "[{\"le\": 0.5, \"count\": 1}, {\"le\": 2, \"count\": 1}], "
      "\"inf_count\": 1, \"sum\": 5.25, \"count\": 3}\n"
      "  ]\n"
      "}\n");
}

TEST(GoldenSchemaTest, TraceJsonSchemaIsLocked) {
  telemetry::TraceCollector collector;
  telemetry::TraceEvent repeat;
  repeat.name = "repeat";
  repeat.category = "runner";
  repeat.ts_us = 1.5;
  repeat.dur_us = 2.25;
  repeat.tid = 0;
  collector.Append(repeat);
  telemetry::TraceEvent batch;
  batch.name = "label_batch";
  batch.category = "oracle";
  batch.ts_us = 4.0;
  batch.dur_us = 0.5;
  batch.tid = 1;
  collector.Append(batch);
  EXPECT_EQ(telemetry::TraceJson(collector),
            "{\"traceEvents\":[\n"
            "{\"name\":\"repeat\",\"cat\":\"runner\",\"ph\":\"X\","
            "\"ts\":1.5,\"dur\":2.25,\"pid\":1,\"tid\":0},\n"
            "{\"name\":\"label_batch\",\"cat\":\"oracle\",\"ph\":\"X\","
            "\"ts\":4,\"dur\":0.5,\"pid\":1,\"tid\":1}\n"
            "],\"displayTimeUnit\":\"ms\"}\n");
}

TEST(GoldenSchemaTest, MetricsJsonEscapesStrings) {
  telemetry::MetricRegistry registry;
  registry.AddCounter("oasis_golden_esc_total", "say \"hi\"\tback\\slash");
  const std::string json = telemetry::MetricsJson(registry);
  EXPECT_NE(json.find("\"say \\\"hi\\\"\\tback\\\\slash\""),
            std::string::npos);
}

}  // namespace
}  // namespace experiments
}  // namespace oasis
