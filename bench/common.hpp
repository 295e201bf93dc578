// Shared harness for the figure/table reproduction binaries.
//
// Every binary accepts:
//   --scale smoke|default|full   sample-count multiplier (0.1 / 1 / 5)
//   --seed <n>                   master seed
//   --csv true                   emit CSV instead of aligned text tables
//   --threads <n>                sweep worker threads (0 = hardware)
// and prints the same rows/series the corresponding paper exhibit reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace forktail::bench {

struct BenchOptions {
  double scale = 1.0;
  std::uint64_t seed = 1;
  bool csv = false;
  /// Worker threads for grid-cell parallel sweeps (ParallelSweepRunner);
  /// 0 = hardware_concurrency, 1 = fully serial.  Output tables are
  /// byte-identical for every value.
  std::size_t threads = 0;
};

/// Parse the standard flags; returns false (after printing usage) on
/// --help.  Extra flags can be declared on `flags` before calling.
bool parse_options(int argc, const char* const* argv, util::CliFlags& flags,
                   BenchOptions& options);
bool parse_options(int argc, const char* const* argv, BenchOptions& options);

/// Scale a sample count, keeping a sane floor.
std::uint64_t scaled(std::uint64_t base, double factor,
                     std::uint64_t floor = 2000);

/// Sample-count multiplier for heavy-traffic points: the p99-of-max
/// estimator is long-range dependent near saturation, so high-load cells
/// need proportionally longer runs to keep measurement noise below the
/// error bands being reported.
inline double load_boost(double load) {
  if (load >= 0.88) return 4.0;
  if (load >= 0.72) return 2.0;
  return 1.0;
}

/// Print the exhibit banner.
void print_banner(const std::string& exhibit, const std::string& description,
                  const BenchOptions& options);

/// Print a table in the selected format.
void emit(const util::Table& table, const BenchOptions& options);

/// Peak resident set size of this process in KiB (-1 when unavailable).
long peak_rss_kib();

/// 99% distribution-free confidence interval [*lo, *hi] for the q-quantile
/// from order statistics: indices m*q -+ z*sqrt(m q (1-q)), z = 2.576.
/// Sorts `values`.
void quantile_ci(std::vector<double>& values, double q, double* lo,
                 double* hi);

/// Which direction of a metric is an improvement.
enum class Better { kHigher, kLower };

/// One row of a BenchReport: free-form info, named checks, gated metrics.
struct BenchRow {
  std::string name;
  util::Json info = util::Json::object();
  std::map<std::string, bool> checks;
  util::Json metrics = util::Json::object();

  /// A metric tools/perf_gate.py compares against the baseline when the
  /// report shapes match: it may worsen (in the `better` direction) by at
  /// most `bound` times the baseline value, or by `bound` itself when
  /// `absolute` is set.
  void metric(const std::string& metric_name, double value,
              const std::string& unit, Better better, double bound,
              bool absolute = false);
};

/// A benchmark report in the one envelope every tracked BENCH_*.json uses
/// (schema "forktail.bench.v1", docs/performance.md "The CI perf gate"):
///
///   {"schema", "benchmark", "shape", "info", "checks",
///    "rows": [{"name", "info", "checks",
///              "metrics": {m: {"value", "unit", "better", "bound"}}}]}
///
/// `shape` holds what must match before two reports' metrics compare
/// (scale, and anything else that changes the numbers' meaning); `checks`
/// are the invariants the run itself asserts.  A run whose checks are not
/// all true exits 1, and the gate refuses it too.
class BenchReport {
 public:
  BenchReport(std::string benchmark, const std::string& scale);

  util::Json shape = util::Json::object();
  util::Json info = util::Json::object();
  std::map<std::string, bool> checks;

  /// Append a row; the reference stays valid for the report's lifetime.
  BenchRow& row(std::string name);

  /// Write the report to `path` (skipped when empty), name every false
  /// check on stderr, and return the process exit status: 0 when every
  /// check holds, 1 otherwise.
  int finish(const std::string& path) const;

 private:
  util::Json to_json() const;

  std::string benchmark_;
  std::deque<BenchRow> rows_;
};

}  // namespace forktail::bench
