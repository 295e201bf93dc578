#include "workload.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "util/rng.hpp"

namespace ftbench {

namespace {

using forktail::serve::kWireChecksumBytes;
using forktail::serve::kWireHeaderBytes;

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

void refresh_checksum(std::uint8_t* dgram, std::size_t len) {
  const std::size_t body = len - kWireChecksumBytes;
  const std::uint32_t sum = forktail::serve::wire_checksum(dgram, body);
  for (int i = 0; i < 4; ++i) {
    dgram[body + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

/// Uniform [0, 1) from a stateless hash of (seed, index), so the corruption
/// pattern does not depend on how the caller batches slots.
double hash_uniform(std::uint64_t seed, std::uint64_t index) {
  forktail::util::SplitMix64 sm(seed ^ (index * 0x9E3779B97F4A7C15ULL));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

constexpr std::size_t kSilenceGroups = 5;        // rotating 20% of agents
constexpr double kSilenceEvery = 3.0;
constexpr double kSilenceFor = 2.0;
constexpr double kStepFraction = 0.05;           // agents stepped per second
constexpr std::uint64_t kStepNs = 200'000'000;   // 0.2 s backwards
constexpr double kCorruptFraction = 0.10;
constexpr double kCorruptAfter = 0.5;  // every agent has a clock by then
constexpr std::uint64_t kStaleNs = 5'000'000'000;

}  // namespace

bool parse_workload(const std::string& name, Workload& out) {
  if (name == "ingest-ladder") {
    out = Workload::kIngestLadder;
  } else if (name == "query-hetero") {
    out = Workload::kQueryHetero;
  } else if (name == "ingest-hostile") {
    out = Workload::kIngestHostile;
  } else {
    return false;
  }
  return true;
}

Plan plan_for(Workload workload, double seconds) {
  Plan plan;
  switch (workload) {
    case Workload::kIngestLadder:
      plan.base_rate = 8e6;
      plan.base_seconds = 0.4 * seconds;
      plan.warmup_seconds = 0.5;
      plan.query_interval_s = 0.005;
      plan.rung_seconds = 1.0;
      plan.settle_seconds = 0.2;
      plan.rung_factor = 1.25;
      plan.rung_cap = 24e6;
      break;
    case Workload::kQueryHetero:
      plan.base_rate = 1e6;
      plan.warmup_seconds = 3.0;
      plan.query_interval_s = 0.0;
      plan.query_clients = 2;
      plan.query_depth = 4;
      break;
    case Workload::kIngestHostile:
      plan.base_rate = 4e6;
      plan.warmup_seconds = 0.5;
      plan.query_interval_s = 0.002;
      break;
  }
  return plan;
}

const char* corruption_reason(Corruption kind) {
  switch (kind) {
    case Corruption::kNone: return "none";
    case Corruption::kTruncated: return "truncated";
    case Corruption::kBadMagic: return "bad_magic";
    case Corruption::kBadVersion: return "bad_version";
    case Corruption::kBadCount: return "bad_count";
    case Corruption::kChecksum: return "checksum";
    case Corruption::kBadSample: return "bad_sample";
    case Corruption::kUnknownNode: return "unknown_node";
    case Corruption::kUnknownService: return "unknown_service";
    case Corruption::kStaleTimestamp: return "stale_timestamp";
  }
  return "unknown";
}

bool wire_level(Corruption kind) {
  return kind != Corruption::kNone && kind != Corruption::kUnknownNode &&
         kind != Corruption::kUnknownService &&
         kind != Corruption::kStaleTimestamp;
}

std::size_t corrupt(std::uint8_t* dgram, std::size_t len, Corruption kind) {
  switch (kind) {
    case Corruption::kNone:
      return len;
    case Corruption::kTruncated:
      return len - 7;
    case Corruption::kBadMagic:
      dgram[0] ^= 0xFF;
      break;
    case Corruption::kBadVersion:
      dgram[4] = 0x7F;
      break;
    case Corruption::kBadCount:
      dgram[20] = 0;
      dgram[21] = 0;
      break;
    case Corruption::kChecksum:
      dgram[len - 1] ^= 0xFF;
      return len;
    case Corruption::kBadSample: {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      std::memcpy(dgram + kWireHeaderBytes, &nan, sizeof nan);
      break;
    }
    case Corruption::kUnknownNode: {
      const std::uint32_t node = kAgents + 7;
      for (int i = 0; i < 4; ++i) dgram[8 + i] = static_cast<std::uint8_t>(node >> (8 * i));
      break;
    }
    case Corruption::kUnknownService:
      dgram[6] = static_cast<std::uint8_t>(kService + 1);
      dgram[7] = 0;
      break;
    case Corruption::kStaleTimestamp:
      store_u64(dgram + 12, load_u64(dgram + 12) - kStaleNs);
      break;
  }
  refresh_checksum(dgram, len);
  return len;
}

Stream::Stream(Workload workload, std::uint64_t seed, double seconds)
    : workload_(workload),
      seed_(seed),
      means_(kAgents, kFastMeanMs),
      order_(kAgents),
      group_(kAgents),
      clock_steps_(kAgents),
      pool_(kAgents * kPoolPerAgent * kDatagramBytes),
      cursor_(kAgents, 0),
      scratch_(kScratch * forktail::serve::kMaxDatagramBytes) {
  const forktail::util::Rng root(seed);

  if (workload == Workload::kQueryHetero) {
    std::vector<std::uint32_t> agents(kAgents);
    for (std::size_t a = 0; a < kAgents; ++a) agents[a] = static_cast<std::uint32_t>(a);
    forktail::util::Rng rng = root.split(1);
    for (std::size_t i = 0; i < kSlowAgents; ++i) {
      const std::size_t j = i + rng.uniform_int(kAgents - i);
      std::swap(agents[i], agents[j]);
      means_[agents[i]] = kSlowMeanMs;
    }
  }

  for (std::size_t a = 0; a < kAgents; ++a) order_[a] = static_cast<std::uint32_t>(a);
  forktail::util::Rng shuffle = root.split(2);
  for (std::size_t i = kAgents - 1; i > 0; --i) {
    std::swap(order_[i], order_[shuffle.uniform_int(i + 1)]);
  }
  for (std::size_t i = 0; i < kAgents; ++i) {
    group_[order_[i]] = static_cast<std::uint32_t>(i * kSilenceGroups / kAgents);
  }

  if (workload == Workload::kIngestHostile) {
    for (std::size_t e = 0;; ++e) {
      const double start = 1.0 + kSilenceEvery * static_cast<double>(e);
      if (start + kSilenceFor > seconds) break;
      silences_.push_back({start, start + kSilenceFor, e % kSilenceGroups});
    }
    const auto stepped = static_cast<std::size_t>(kStepFraction * kAgents);
    for (std::size_t s = 1; static_cast<double>(s) < seconds; ++s) {
      const double t = static_cast<double>(s);
      forktail::util::Rng rng = root.split(1000 + s);
      std::vector<bool> taken(kAgents, false);
      // Silent agents keep their clocks: a revived agent then never runs
      // behind the daemon's estimate of its clock.
      for (std::size_t n = 0; n < stepped;) {
        const std::size_t a = rng.uniform_int(kAgents);
        if (taken[a] || silent(a, t)) continue;
        taken[a] = true;
        clock_steps_[a].push_back(t);
        ++n;
      }
    }
  }

  // Pre-encode every agent's pool.
  forktail::serve::WireBatch batch;
  batch.service = kService;
  batch.count = static_cast<std::uint16_t>(kBatch);
  for (std::size_t a = 0; a < kAgents; ++a) {
    forktail::util::Rng rng = root.split(10000 + a);
    batch.node = static_cast<std::uint32_t>(a);
    for (std::size_t d = 0; d < kPoolPerAgent; ++d) {
      for (std::size_t i = 0; i < kBatch; ++i) batch.samples[i] = rng.exponential(means_[a]);
      forktail::serve::encode(
          batch, pool_.data() + (a * kPoolPerAgent + d) * kDatagramBytes,
          kDatagramBytes);
    }
  }
}

bool Stream::silent(std::size_t agent, double t) const {
  for (const Silence& s : silences_) {
    if (t >= s.start_s && t < s.end_s && group_[agent] == s.group) return true;
  }
  return false;
}

std::uint64_t Stream::agent_clock_ns(std::size_t agent, double t) const {
  const std::vector<double>& steps = clock_steps_[agent];
  const auto stepped = static_cast<std::uint64_t>(
      std::upper_bound(steps.begin(), steps.end(), t) - steps.begin());
  const std::uint64_t base_ns = 1'000'000'000'000ULL + agent * 1'000'000ULL;
  return base_ns + static_cast<std::uint64_t>(std::llround(t * 1e9)) -
         stepped * kStepNs;
}

bool Stream::make(std::uint64_t slot, double due_s, Datagram& out) {
  const std::size_t agent = order_[slot % kAgents];
  if (!silences_.empty() && silent(agent, due_s)) return false;
  std::uint8_t* entry =
      pool_.data() + (agent * kPoolPerAgent + cursor_[agent]) * kDatagramBytes;
  cursor_[agent] = static_cast<std::uint32_t>((cursor_[agent] + 1) % kPoolPerAgent);
  store_u64(entry + 12, agent_clock_ns(agent, due_s));
  refresh_checksum(entry, kDatagramBytes);

  out.agent = agent;
  out.corruption = Corruption::kNone;
  out.data = entry;
  out.len = kDatagramBytes;
  if (workload_ == Workload::kIngestHostile && due_s >= kCorruptAfter &&
      hash_uniform(seed_, slot) < kCorruptFraction) {
    const auto kind = static_cast<Corruption>(
        1 + next_corruption_ % kCorruptionKinds);
    std::uint8_t* copy = scratch_.data() + (next_corruption_ % kScratch) *
                                               forktail::serve::kMaxDatagramBytes;
    ++next_corruption_;
    std::memcpy(copy, entry, kDatagramBytes);
    out.data = copy;
    out.len = corrupt(copy, kDatagramBytes, kind);
    out.corruption = kind;
    ++corrupted_[static_cast<std::size_t>(kind)];
  }
  return true;
}

double exact_max_quantile(const std::vector<double>& means, double p) {
  std::map<double, double> groups;  // mean -> node count
  for (const double m : means) groups[m] += 1.0;
  const double target = std::log(p / 100.0);
  // log prod_i (1 - exp(-x / m_i)), increasing in x.
  const auto log_cdf = [&](double x) {
    double sum = 0.0;
    for (const auto& [m, n] : groups) sum += n * std::log1p(-std::exp(-x / m));
    return sum;
  };
  double lo = 0.0;
  double hi = groups.rbegin()->first;
  while (log_cdf(hi) < target) hi *= 2.0;
  for (int i = 0; i < 200 && hi - lo > 1e-15 * hi; ++i) {
    const double mid = 0.5 * (lo + hi);
    (log_cdf(mid) < target ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

}  // namespace ftbench
