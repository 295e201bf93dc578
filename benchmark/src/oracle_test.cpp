// Unit test of the benchmark's exact-truth oracle and corruption model.
// run.py runs it before every measured run; a failure fails the run.
//
//   * Homogeneous Exp(5), k = 1000: GE with alpha = 1 is exact for the
//     exponential, so the bisection oracle must agree with
//     core::homogeneous_quantile({5, 25}, 1000, 99) = 57.5395 ms to 1e-9.
//   * The query-hetero fleet (900 x Exp(5) + 100 x Exp(15)) has exact p99
//     138.08 ms, whichever nodes are the slow ones.
//   * Every corruption the generator sends is rejected for the reason the
//     benchmark expects the daemon to count.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/predictor.hpp"
#include "serve/wire.hpp"
#include "workload.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

}  // namespace

int main() {
  using namespace ftbench;

  const std::vector<double> homogeneous(kAgents, kFastMeanMs);
  const double exact = exact_max_quantile(homogeneous, 99.0);
  const double ge = forktail::core::homogeneous_quantile(
      {kFastMeanMs, kFastMeanMs * kFastMeanMs}, kAgents, 99.0);
  const double closed = -kFastMeanMs * std::log1p(-std::pow(0.99, 1.0 / kAgents));
  char line[256];
  std::snprintf(line, sizeof line,
                "homogeneous p99: oracle %.10f, GE %.10f, closed form %.10f",
                exact, ge, closed);
  expect(std::abs(exact - ge) <= 1e-9 * ge, line);
  expect(std::abs(exact - closed) <= 1e-12 * closed,
         "bisection matches the closed-form inverse");
  expect(std::abs(exact - 57.5395) < 5e-5, "homogeneous p99 is 57.5395 ms");

  for (const std::uint64_t seed : {1, 2, 3}) {
    const Stream stream(Workload::kQueryHetero, seed, 15.0);
    std::size_t slow = 0;
    for (const double m : stream.means()) slow += m == kSlowMeanMs ? 1 : 0;
    const double hetero = exact_max_quantile(stream.means(), 99.0);
    std::snprintf(line, sizeof line,
                  "hetero p99 (seed %llu, %zu slow nodes): %.4f ms",
                  static_cast<unsigned long long>(seed), slow, hetero);
    expect(slow == kSlowAgents && std::abs(hetero - 138.08) < 5e-3, line);
  }

  // Corruptions decode to the reason the daemon counts (wire-level kinds
  // here; the three fleet/clock kinds decode cleanly and differ in the one
  // field the daemon checks).
  Stream stream(Workload::kIngestHostile, 1, 15.0);
  Stream::Datagram good;
  std::uint64_t slot = 0;
  while (!stream.make(slot, 0.0, good)) ++slot;
  forktail::serve::WireBatch clean;
  expect(forktail::serve::decode(good.data, good.len, clean) ==
             forktail::serve::WireError::kNone,
         "pool datagram decodes");
  for (std::size_t k = 1; k <= kCorruptionKinds; ++k) {
    const auto kind = static_cast<Corruption>(k);
    std::vector<std::uint8_t> copy(good.data, good.data + good.len);
    const std::size_t len = corrupt(copy.data(), copy.size(), kind);
    forktail::serve::WireBatch batch;
    const auto err = forktail::serve::decode(copy.data(), len, batch);
    bool ok;
    if (wire_level(kind)) {
      ok = std::strcmp(forktail::serve::wire_error_name(err),
                       corruption_reason(kind)) == 0;
    } else if (kind == Corruption::kUnknownNode) {
      ok = err == forktail::serve::WireError::kNone && batch.node >= kAgents;
    } else if (kind == Corruption::kUnknownService) {
      ok = err == forktail::serve::WireError::kNone && batch.service != kService;
    } else {
      ok = err == forktail::serve::WireError::kNone &&
           batch.timestamp_ns + 5'000'000'000ULL == clean.timestamp_ns;
    }
    expect(ok, std::string("corruption ") + corruption_reason(kind));
  }

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
