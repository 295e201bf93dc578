#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "util/text_file.hpp"

namespace forktail::bench {

bool parse_options(int argc, const char* const* argv, util::CliFlags& flags,
                   BenchOptions& options) {
  flags.declare("scale", "default", "sample-count scale: smoke|default|full");
  flags.declare("seed", "1", "master RNG seed");
  flags.declare("csv", "false", "emit CSV instead of text tables");
  flags.declare("threads", "0",
                "worker threads for parallel sweeps (0 = hardware)");
  if (!flags.parse(argc, argv)) return false;
  options.scale = util::scale_factor(util::parse_scale(flags.get_string("scale")));
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.csv = flags.get_bool("csv");
  const auto threads = flags.get_int("threads");
  if (threads < 0) throw std::invalid_argument("--threads must be >= 0");
  options.threads = static_cast<std::size_t>(threads);
  return true;
}

bool parse_options(int argc, const char* const* argv, BenchOptions& options) {
  util::CliFlags flags;
  return parse_options(argc, argv, flags, options);
}

std::uint64_t scaled(std::uint64_t base, double factor, std::uint64_t floor) {
  const auto n = static_cast<std::uint64_t>(static_cast<double>(base) * factor);
  return std::max(n, floor);
}

void print_banner(const std::string& exhibit, const std::string& description,
                  const BenchOptions& options) {
  if (options.csv) return;
  std::printf("=== %s ===\n%s\n(scale x%.1f, seed %llu)\n\n", exhibit.c_str(),
              description.c_str(), options.scale,
              static_cast<unsigned long long>(options.seed));
}

void emit(const util::Table& table, const BenchOptions& options) {
  if (options.csv) {
    std::fputs(table.to_csv().c_str(), stdout);
  } else {
    std::fputs(table.to_text().c_str(), stdout);
    std::fputs("\n", stdout);
  }
}

long peak_rss_kib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    return usage.ru_maxrss / 1024;  // bytes on macOS
#else
    return usage.ru_maxrss;  // KiB on Linux
#endif
  }
#endif
  return -1;
}

void quantile_ci(std::vector<double>& values, double q, double* lo,
                 double* hi) {
  std::sort(values.begin(), values.end());
  const double m = static_cast<double>(values.size());
  const double half = 2.576 * std::sqrt(m * q * (1.0 - q));
  const auto clamp_index = [&](double j) {
    return static_cast<std::size_t>(
        std::min(m - 1.0, std::max(0.0, std::round(j))));
  };
  *lo = values[clamp_index(m * q - half - 1.0)];
  *hi = values[clamp_index(m * q + half)];
}

namespace {

util::Json checks_json(const std::map<std::string, bool>& checks) {
  util::Json out = util::Json::object();
  for (const auto& [name, ok] : checks) out.set(name, ok);
  return out;
}

}  // namespace

void BenchRow::metric(const std::string& metric_name, double value,
                      const std::string& unit, Better better, double bound,
                      bool absolute) {
  util::Json m = util::Json::object();
  m.set("value", value);
  m.set("unit", unit);
  m.set("better", better == Better::kHigher ? "higher" : "lower");
  m.set("bound", bound);
  if (absolute) m.set("absolute", true);
  metrics.set(metric_name, std::move(m));
}

BenchReport::BenchReport(std::string benchmark, const std::string& scale)
    : benchmark_(std::move(benchmark)) {
  shape.set("scale", scale);
}

BenchRow& BenchReport::row(std::string name) {
  BenchRow& r = rows_.emplace_back();
  r.name = std::move(name);
  return r;
}

util::Json BenchReport::to_json() const {
  util::Json rows = util::Json::array();
  for (const BenchRow& r : rows_) {
    util::Json row = util::Json::object();
    row.set("name", r.name);
    row.set("info", r.info);
    row.set("checks", checks_json(r.checks));
    row.set("metrics", r.metrics);
    rows.push_back(std::move(row));
  }
  util::Json doc = util::Json::object();
  doc.set("schema", "forktail.bench.v1");
  doc.set("benchmark", benchmark_);
  doc.set("shape", shape);
  doc.set("info", info);
  doc.set("checks", checks_json(checks));
  doc.set("rows", std::move(rows));
  return doc;
}

int BenchReport::finish(const std::string& path) const {
  if (!path.empty()) {
    try {
      util::write_text_file(path, to_json().dump(2) + "\n");
    } catch (const std::runtime_error&) {
      throw std::runtime_error(benchmark_ + ": cannot write " + path);
    }
    std::printf("wrote %s\n", path.c_str());
  }
  int status = 0;
  const auto report = [&](const std::string& scope,
                          const std::map<std::string, bool>& checks) {
    for (const auto& [name, ok] : checks) {
      if (ok) continue;
      std::fprintf(stderr, "%s: check failed: %s%s\n", benchmark_.c_str(),
                   scope.c_str(), name.c_str());
      status = 1;
    }
  };
  report("", checks);
  for (const BenchRow& r : rows_) report(r.name + ": ", r.checks);
  return status;
}

}  // namespace forktail::bench
