// RunReport: a serializable snapshot of a metrics Registry.
//
// Two output formats:
//   * JSON -- the stable, versioned schema downstream tooling parses
//     (schema id "forktail.run_report.v1"; see docs/observability.md and
//     tests/test_report_schema.cpp, which pins the key set).
//   * Prometheus text exposition -- counters as `forktail_<name> value`,
//     gauges likewise, histograms as `_bucket{le=...}` / `_sum` / `_count`
//     series, for scraping via a textfile collector.
//
// `write()` dispatches on the path extension: ".prom" emits the Prometheus
// dump, anything else the JSON document.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace forktail::obs {

/// Bump when the JSON document's structure changes; the schema regression
/// test pins the key set for the current version.
inline constexpr int kRunReportVersion = 1;

class RunReport {
 public:
  /// Snapshot `registry` now.  `tool` identifies the producing command
  /// (e.g. "bench_replay") in the emitted document; `scenario` optionally
  /// names the scenario the run executed (`forktail run` passes the spec's
  /// name).  An empty scenario is omitted from the document, so documents
  /// without one keep the exact v1 key set.  `degraded` marks runs whose
  /// predictions fell back on approximations (see docs/robustness.md);
  /// false is likewise omitted, preserving the v1 key set for clean runs.
  static RunReport capture(const Registry& registry, std::string tool,
                           std::string scenario = "", bool degraded = false);

  std::string to_json() const;
  std::string to_prometheus() const;

  /// Write to `path` (format by extension, see file comment).  Throws
  /// std::runtime_error when the file cannot be opened.
  void write(const std::string& path) const;

  const Registry::Snapshot& snapshot() const noexcept { return snapshot_; }
  const std::string& tool() const noexcept { return tool_; }
  const std::string& scenario() const noexcept { return scenario_; }
  bool degraded() const noexcept { return degraded_; }

 private:
  std::string tool_;
  std::string scenario_;
  bool degraded_ = false;
  Registry::Snapshot snapshot_;
};

}  // namespace forktail::obs
