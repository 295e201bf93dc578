// Schema regression tests for the JSON artifacts downstream tooling
// parses: the tracked BENCH_*.json reports (forktail.bench.v1, the
// envelope tools/perf_gate.py reads) and the observability RunReport
// (forktail.run_report.v1).  A key disappearing or
// being renamed is an API break for dashboards -- these tests pin the key
// sets so such a change has to be made deliberately (and versioned).
//
// Documents are walked with util::Json via the shared test helper (the
// in-test reader this file used to carry was promoted to src/util/json).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "scenario/run.hpp"
#include "support/json_test.hpp"
#include "util/json.hpp"
#include "util/text_file.hpp"

#ifndef FORKTAIL_SOURCE_DIR
#define FORKTAIL_SOURCE_DIR "."
#endif

namespace forktail {
namespace {

using test_support::parse_json_file;
using util::Json;

// ------------------------------------------- tracked BENCH_*.json envelope

/// Every check in `checks` (an object of named booleans) holds.
void expect_all_true(const Json& checks, const std::string& where) {
  ASSERT_TRUE(checks.is_object()) << where;
  for (const auto& [name, ok] : checks.fields()) {
    EXPECT_TRUE(ok.as_bool()) << where << ": check " << name;
  }
}

TEST(ReportSchema, BenchReplayBaselineKeySet) {
  const std::set<std::string> expected_top = {
      "schema", "benchmark", "shape", "info", "checks", "rows"};
  const std::set<std::string> expected_row = {"name", "info", "checks",
                                              "metrics"};
  const std::set<std::string> expected_metric = {"value", "unit", "better",
                                                 "bound"};
  for (const std::string bench : {"replay", "cluster", "bounds", "heavy"}) {
    const std::string file = "BENCH_" + bench + ".json";
    const Json doc =
        parse_json_file(std::string(FORKTAIL_SOURCE_DIR) + "/" + file);
    EXPECT_EQ(doc.keys(), expected_top) << file;
    EXPECT_EQ(doc.at("schema").as_string(), "forktail.bench.v1") << file;
    EXPECT_TRUE(doc.at("shape").contains("scale")) << file;
    expect_all_true(doc.at("checks"), file);

    std::set<std::string> names;
    ASSERT_FALSE(doc.at("rows").items().empty()) << file;
    for (const Json& row : doc.at("rows").items()) {
      const std::string where = file + " " + row.at("name").as_string();
      EXPECT_EQ(row.keys(), expected_row) << where;
      names.insert(row.at("name").as_string());
      expect_all_true(row.at("checks"), where);
      for (const auto& [metric, m] : row.at("metrics").fields()) {
        // "absolute" marks a bound that is a difference, not a fraction.
        std::set<std::string> keys = m.keys();
        keys.erase("absolute");
        EXPECT_EQ(keys, expected_metric) << where << " " << metric;
        const std::string better = m.at("better").as_string();
        EXPECT_TRUE(better == "higher" || better == "lower") << where;
        EXPECT_GT(m.at("bound").as_number(), 0.0) << where;
      }
    }
    if (bench != "replay") continue;
    // The replay envelope: every workload has a row for each of the four
    // paths, and the shape names the SIMD dispatch level.
    EXPECT_TRUE(doc.at("shape").contains("simd_dispatch"));
    for (const std::string& name : names) {
      const std::string workload = name.substr(0, name.find('/'));
      if (workload == "process") continue;
      for (const char* path : {"scalar", "batched", "vector", "vector_t2"}) {
        EXPECT_EQ(names.count(workload + "/" + path), 1u)
            << workload << " lacks its " << path << " row";
      }
    }
  }
}

// ------------------------------------------------- RunReport v1 schema

TEST(ReportSchema, RunReportV1KeySet) {
  obs::Registry registry;
  registry.counter("events").add(5);
  registry.gauge("depth").set(2.0);
  obs::Histogram& h = registry.histogram("latency");
  for (double v : {0.001, 0.002, 0.004, 0.1}) h.record(v);

  const obs::RunReport report = obs::RunReport::capture(registry, "schema-test");
  const Json doc = Json::parse(report.to_json());

  const std::set<std::string> expected_top = {
      "schema",   "version", "tool",      "observability_enabled",
      "counters", "gauges",  "histograms"};
  EXPECT_EQ(doc.keys(), expected_top);
  EXPECT_EQ(doc.at("schema").as_string(), "forktail.run_report.v1");
  EXPECT_EQ(doc.at("version").as_number(), obs::kRunReportVersion);
  EXPECT_EQ(doc.at("tool").as_string(), "schema-test");

  EXPECT_TRUE(doc.at("observability_enabled").as_bool());
  EXPECT_EQ(doc.at("counters").at("events").as_number(), 5.0);
  EXPECT_EQ(doc.at("gauges").at("depth").as_number(), 2.0);

  const Json& hist = doc.at("histograms").at("latency");
  const std::set<std::string> expected_hist = {
      "count", "sum", "mean", "min", "max", "p50", "p95", "p99", "p999",
      "buckets"};
  EXPECT_EQ(hist.keys(), expected_hist);
  EXPECT_EQ(hist.at("count").as_number(), 4.0);
  const Json& buckets = hist.at("buckets");
  ASSERT_TRUE(buckets.is_array());
  ASSERT_FALSE(buckets.items().empty());
  for (const Json& b : buckets.items()) {
    // Each bucket is a [lo, hi, count] triple with lo < hi.
    ASSERT_EQ(b.items().size(), 3u);
    EXPECT_LT(b.items()[0].as_number(), b.items()[1].as_number());
    EXPECT_GE(b.items()[2].as_number(), 1.0);
  }
}

// A scenario-labeled report (what `forktail run` emits) adds exactly one
// key; an empty label keeps the v1 key set above, so documents from older
// tools stay schema-identical.
TEST(ReportSchema, RunReportScenarioLabel) {
  obs::Registry registry;
  const obs::RunReport labeled =
      obs::RunReport::capture(registry, "forktail run", "subset-fixed-k100");
  const Json doc = Json::parse(labeled.to_json());
  const std::set<std::string> expected_top = {
      "schema",   "version", "tool",      "observability_enabled",
      "scenario", "counters", "gauges",  "histograms"};
  EXPECT_EQ(doc.keys(), expected_top);
  EXPECT_EQ(doc.at("scenario").as_string(), "subset-fixed-k100");

  const obs::RunReport unlabeled =
      obs::RunReport::capture(registry, "forktail run");
  EXPECT_FALSE(Json::parse(unlabeled.to_json()).contains("scenario"));
}

// The degraded flag mirrors the scenario-label rule: a degraded run adds
// exactly one key, and clean runs keep the v1 key set byte-compatible.
TEST(ReportSchema, RunReportDegradedFlag) {
  obs::Registry registry;
  const obs::RunReport degraded = obs::RunReport::capture(
      registry, "forktail run", "faulty-homogeneous", /*degraded=*/true);
  const Json doc = Json::parse(degraded.to_json());
  const std::set<std::string> expected_top = {
      "schema",   "version",  "tool",     "observability_enabled",
      "scenario", "degraded", "counters", "gauges",
      "histograms"};
  EXPECT_EQ(doc.keys(), expected_top);
  EXPECT_TRUE(doc.at("degraded").as_bool());

  const obs::RunReport clean =
      obs::RunReport::capture(registry, "forktail run", "plain");
  EXPECT_FALSE(Json::parse(clean.to_json()).contains("degraded"));
}

// The `forktail run` report (forktail.scenario_report.v1) names the replay
// engine that produced it: "vector" where fjsim::vector_supports() accepts
// the config, "legacy" otherwise.  Never the SIMD dispatch level, which
// would make reports machine-dependent.
TEST(ReportSchema, ScenarioReportSimulationKeySet) {
  scenario::ScenarioSpec spec;
  spec.requests = 200;
  const Json doc = scenario::to_json(scenario::run_scenario(spec, {}, {99.0}));
  const std::set<std::string> expected = {
      "responses",    "lambda",        "mean_k", "total_tasks",
      "task_mean_ms", "task_variance", "engine"};
  EXPECT_EQ(doc.at("simulation").keys(), expected);
  EXPECT_EQ(doc.at("simulation").at("engine").as_string(), "vector");

  spec.group.policy = fjsim::Policy::kRedundant;
  spec.group.replicas = 2;
  const Json redundant =
      scenario::to_json(scenario::run_scenario(spec, {}, {99.0}));
  EXPECT_EQ(redundant.at("simulation").at("engine").as_string(), "legacy");
}

TEST(ReportSchema, RunReportJsonIsParseableAfterRealRun) {
  // End-to-end: snapshot the GLOBAL registry (whatever other tests have
  // recorded into it) and require the document to stay well-formed.
  const obs::RunReport report =
      obs::RunReport::capture(obs::Registry::global(), "forktail_tests");
  EXPECT_NO_THROW({
    const Json doc = Json::parse(report.to_json());
    EXPECT_EQ(doc.at("schema").as_string(), "forktail.run_report.v1");
  });
}

// ---------------------------------------------------- report file writer

TEST(WriteTextFile, RewriteCutsToLengthAndKeepsTheInode) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "write_text_file";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string file = (dir / "report.json").string();
  const std::string link = (dir / "latest.json").string();
  util::write_text_file(file, "a much longer first report\n");
  fs::create_symlink("report.json", link);
  util::write_text_file(link, "short\n");
  EXPECT_TRUE(fs::is_symlink(link));
  EXPECT_EQ(util::read_text_file(file), "short\n");
  util::write_text_file(file, "");
  EXPECT_EQ(fs::file_size(file), 0u);
  EXPECT_THROW(util::write_text_file((dir / "no" / "x.json").string(), "x"),
               std::runtime_error);
  fs::remove_all(dir);
}

TEST(WriteTextFile, RunReportRewritesAnExistingFileInPlace) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "run_report_rewrite";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string file = (dir / "report.json").string();
  const std::string alias = (dir / "alias.json").string();
  util::write_text_file(file, std::string(1 << 20, 'x'));
  fs::create_hard_link(file, alias);
  obs::Registry registry;
  registry.counter("rewrite.test").add(1);
  const obs::RunReport report = obs::RunReport::capture(registry, "rewrite");
  report.write(file);
  // Same inode: the hard link sees the new, shorter report.
  EXPECT_EQ(util::read_text_file(file), report.to_json());
  EXPECT_EQ(util::read_text_file(alias), report.to_json());
  EXPECT_THROW(report.write((dir / "no" / "x.json").string()),
               std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace forktail
