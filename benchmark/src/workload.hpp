// The benchmark's agent fleet and datagram stream, shared by the open-loop
// load generator (loadgen.cpp) and the in-process traced replay (trace.cpp)
// so both see the same bytes for the same (workload, seed).
//
// A stream is a sequence of slots.  Slot j belongs to agent
// order[j mod 1000] (a seeded permutation), so every agent gets the same
// share of the offered rate; the caller decides when each slot is due.
// Each agent sends forktail.wire.v1 datagrams of 64 samples drawn from its
// exponential service, pre-encoded in a per-agent pool; sending one only
// patches the timestamp and the FNV-1a checksum.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/wire.hpp"

namespace ftbench {

inline constexpr std::size_t kAgents = 1000;
inline constexpr std::size_t kBatch = 64;
inline constexpr std::size_t kPoolPerAgent = 8;
inline constexpr std::size_t kDatagramBytes =
    forktail::serve::kWireHeaderBytes + 8 * kBatch +
    forktail::serve::kWireChecksumBytes;
inline constexpr double kFastMeanMs = 5.0;
inline constexpr double kSlowMeanMs = 15.0;
inline constexpr std::size_t kSlowAgents = 100;
inline constexpr double kQueryP = 99.0;
inline constexpr std::uint16_t kService = 0;

enum class Workload { kIngestLadder, kQueryHetero, kIngestHostile };
bool parse_workload(const std::string& name, Workload& out);

/// Timing of one serve workload, scaled to the run length `seconds`.
struct Plan {
  double base_rate = 0.0;       ///< samples/s of the fixed-rate phase
  double base_seconds = 0.0;    ///< ingest-ladder: length of the base phase
  double warmup_seconds = 0.0;  ///< queries before this are not judged
  double query_interval_s = 0.0;  ///< open-loop cadence; 0 = closed loop
  std::size_t query_clients = 1;
  std::size_t query_depth = 1;    ///< closed loop: requests in flight per client
  // ingest-ladder only: after the base phase, rungs of rung_seconds at
  // rate x rung_factor each, separated by settle_seconds of silence so the
  // daemon's counters are exact at every rung boundary.
  double rung_seconds = 0.0;
  double settle_seconds = 0.0;
  double rung_factor = 1.0;
  double rung_cap = 0.0;
};
Plan plan_for(Workload workload, double seconds);

/// The nine deliberate corruptions, one per serve rejection reason.
enum class Corruption : std::uint8_t {
  kNone,
  kTruncated,
  kBadMagic,
  kBadVersion,
  kBadCount,
  kChecksum,
  kBadSample,
  kUnknownNode,
  kUnknownService,
  kStaleTimestamp,
};
inline constexpr std::size_t kCorruptionKinds = 9;
/// The serve.wire.rejected.<reason> counter a corruption must move.
const char* corruption_reason(Corruption kind);
/// Whether decode() itself rejects the corruption (the rest are rejected
/// by the reader's fleet checks or by the shard's clock check).
bool wire_level(Corruption kind);

/// Corrupt a stamped, well-formed datagram in place; returns the new length.
std::size_t corrupt(std::uint8_t* dgram, std::size_t len, Corruption kind);

/// One silence episode of ingest-hostile: agents of `group` send nothing
/// in [start_s, end_s).
struct Silence {
  double start_s;
  double end_s;
  std::size_t group;
};

class Stream {
 public:
  Stream(Workload workload, std::uint64_t seed, double seconds);

  const std::vector<double>& means() const noexcept { return means_; }
  const std::vector<Silence>& silences() const noexcept { return silences_; }

  struct Datagram {
    std::size_t agent = 0;
    Corruption corruption = Corruption::kNone;
    /// Valid for the next kScratch slots at least (the pool entry is
    /// reused kPoolPerAgent * kAgents slots later, a corrupted copy
    /// kScratch corruptions later).
    std::uint8_t* data = nullptr;
    std::size_t len = 0;
  };
  static constexpr std::size_t kScratch = 256;
  /// Build slot `slot` due at `due_s` (seconds since the stream started).
  /// Returns false when the slot's agent is silent then.  Slots must be
  /// built in increasing order: corruption cycles through the reasons.
  bool make(std::uint64_t slot, double due_s, Datagram& out);

  /// Corruptions handed out so far, by kind (index = kind).
  const std::array<std::uint64_t, kCorruptionKinds + 1>& corrupted() const {
    return corrupted_;
  }

 private:
  bool silent(std::size_t agent, double t) const;
  std::uint64_t agent_clock_ns(std::size_t agent, double t) const;

  Workload workload_;
  std::uint64_t seed_;
  std::vector<double> means_;
  std::vector<std::uint32_t> order_;     ///< slot -> agent permutation
  std::vector<std::uint32_t> group_;     ///< agent -> silence group (0..4)
  std::vector<Silence> silences_;
  std::vector<std::vector<double>> clock_steps_;  ///< per agent, seconds
  std::vector<std::uint8_t> pool_;       ///< agents x kPoolPerAgent datagrams
  std::vector<std::uint32_t> cursor_;    ///< per agent, next pool entry
  std::vector<std::uint8_t> scratch_;    ///< kScratch corrupted copies
  std::uint64_t next_corruption_ = 0;
  std::array<std::uint64_t, kCorruptionKinds + 1> corrupted_{};
};

/// Exact p-th percentile (ms) of max_i X_i over independent X_i ~
/// Exp(means[i]): the inverse of prod_i (1 - exp(-x / m_i)) by bisection.
double exact_max_quantile(const std::vector<double>& means, double p);

/// Linear-interpolated percentile of `values` (sorted in place), 0 if empty.
/// The benchmark's own, not stats::percentiles: a change to the tree's
/// stats layer must not change how the benchmark measures it.
double percentile(std::vector<double>& values, double p);

}  // namespace ftbench
