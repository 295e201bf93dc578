#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/text_file.hpp"

namespace forktail::obs {

namespace {

std::string json_num(double v) {
  // JSON has no Infinity/NaN literals; non-finite values (only the
  // overflow bucket's upper bound in practice) serialize as null.
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Minimal string escape for the tool / scenario labels (metric names are
/// identifier-like and need none).  obs sits below util in the layer order,
/// so it cannot use util::json_escape.
std::string json_str(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

/// Metric names are dotted (e.g. "fjsim.tasks"); Prometheus wants
/// [a-zA-Z0-9_:] so dots and dashes become underscores.
std::string prom_name(const std::string& name) {
  std::string out = "forktail_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

RunReport RunReport::capture(const Registry& registry, std::string tool,
                             std::string scenario, bool degraded) {
  RunReport report;
  report.tool_ = std::move(tool);
  report.scenario_ = std::move(scenario);
  report.degraded_ = degraded;
  report.snapshot_ = registry.snapshot();
  return report;
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"forktail.run_report.v" << kRunReportVersion
     << "\",\n";
  os << "  \"version\": " << kRunReportVersion << ",\n";
  os << "  \"tool\": \"" << json_str(tool_) << "\",\n";
  if (!scenario_.empty()) {
    os << "  \"scenario\": \"" << json_str(scenario_) << "\",\n";
  }
  if (degraded_) {
    os << "  \"degraded\": true,\n";
  }
  os << "  \"observability_enabled\": true,\n";
  os << "  \"counters\": {";
  for (std::size_t i = 0; i < snapshot_.counters.size(); ++i) {
    const auto& [name, value] = snapshot_.counters[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << name << "\": " << value;
  }
  os << (snapshot_.counters.empty() ? "" : "\n  ") << "},\n";
  os << "  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot_.gauges.size(); ++i) {
    const auto& [name, value] = snapshot_.gauges[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << name
       << "\": " << json_num(value);
  }
  os << (snapshot_.gauges.empty() ? "" : "\n  ") << "},\n";
  os << "  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot_.histograms.size(); ++i) {
    const auto& [name, h] = snapshot_.histograms[i];
    os << (i == 0 ? "\n" : ",\n") << "    \"" << name << "\": {\n";
    os << "      \"count\": " << h.count << ",\n";
    os << "      \"sum\": " << json_num(h.sum) << ",\n";
    os << "      \"mean\": " << json_num(h.mean()) << ",\n";
    os << "      \"min\": " << json_num(h.min) << ",\n";
    os << "      \"max\": " << json_num(h.max) << ",\n";
    os << "      \"p50\": " << json_num(h.quantile(0.50)) << ",\n";
    os << "      \"p95\": " << json_num(h.quantile(0.95)) << ",\n";
    os << "      \"p99\": " << json_num(h.quantile(0.99)) << ",\n";
    os << "      \"p999\": " << json_num(h.quantile(0.999)) << ",\n";
    os << "      \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      const auto& bucket = h.buckets[b];
      os << (b == 0 ? "" : ", ") << "[" << json_num(bucket.lo) << ", "
         << json_num(bucket.hi) << ", " << bucket.count << "]";
    }
    os << "]\n";
    os << "    }";
  }
  os << (snapshot_.histograms.empty() ? "" : "\n  ") << "}\n";
  os << "}\n";
  return os.str();
}

std::string RunReport::to_prometheus() const {
  std::ostringstream os;
  for (const auto& [name, value] : snapshot_.counters) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " counter\n";
    os << p << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot_.gauges) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " gauge\n";
    os << p << " " << json_num(value) << "\n";
  }
  for (const auto& [name, h] : snapshot_.histograms) {
    const std::string p = prom_name(name);
    os << "# TYPE " << p << " histogram\n";
    std::uint64_t cum = 0;
    for (const auto& bucket : h.buckets) {
      cum += bucket.count;
      os << p << "_bucket{le=\"";
      if (std::isfinite(bucket.hi)) {
        os << json_num(bucket.hi);
      } else {
        os << "+Inf";
      }
      os << "\"} " << cum << "\n";
    }
    if (h.buckets.empty() || std::isfinite(h.buckets.back().hi)) {
      os << p << "_bucket{le=\"+Inf\"} " << h.count << "\n";
    }
    os << p << "_sum " << json_num(h.sum) << "\n";
    os << p << "_count " << h.count << "\n";
  }
  return os.str();
}

void RunReport::write(const std::string& path) const {
  const bool prom =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0;
  try {
    util::write_text_file(path, prom ? to_prometheus() : to_json());
  } catch (const std::runtime_error&) {
    throw std::runtime_error("RunReport: cannot write " + path);
  }
}

}  // namespace forktail::obs
