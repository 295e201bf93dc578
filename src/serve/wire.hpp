// forktail.wire.v1: the agent -> daemon datagram format.
//
// One UDP datagram carries one batch of task-response samples from one
// fork node.  The format is fixed-layout little-endian binary (agents are
// statically-linked C on the same byte order as the fleet; the fslatency
// exemplar's diskless-UDP shape):
//
//   offset  size  field
//   0       4     magic 0x464B5431 ("FKT1" read as LE u32 bytes '1TKF')
//   4       2     version (currently 1)
//   6       2     service id (which logical service the node belongs to)
//   8       4     node id
//   12      8     timestamp_ns -- the agent's MONOTONIC clock at batch
//                 close, nanoseconds; per-node non-decreasing modulo skew
//   20      2     sample count m, 1..kMaxSamplesPerDatagram
//   22      2     reserved, must be zero
//   24      8*m   samples: IEEE-754 f64 response times, milliseconds
//   24+8m   4     checksum: FNV-1a 32 over bytes [0, 24+8m)
//
// An always-on daemon is only as good as its worst input, so decode() is
// total: every way a datagram can be malformed maps to a typed WireError
// (counted as serve.wire.rejected.<reason> by the ingest layer), and an
// accepted batch is guaranteed well-formed -- in-range count, finite
// non-negative samples.  Nothing here throws and nothing reads past `len`.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace forktail::serve {

inline constexpr std::uint32_t kWireMagic = 0x464B5431;  // "FKT1"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 24;
inline constexpr std::size_t kWireChecksumBytes = 4;
/// Batch-size cap: 256 samples keeps the biggest datagram (2076 bytes)
/// comfortably inside one unfragmented UDP payload on loopback and typical
/// jumbo-less LANs while amortising the per-datagram syscall over enough
/// samples for million-per-second ingest.
inline constexpr std::size_t kMaxSamplesPerDatagram = 256;
inline constexpr std::size_t kMaxDatagramBytes =
    kWireHeaderBytes + 8 * kMaxSamplesPerDatagram + kWireChecksumBytes;

/// Why a datagram was rejected (serve.wire.rejected.<reason>).  The wire
/// layer can only see per-datagram problems; unknown-node and
/// stale-timestamp rejection happens in the ingest layer, which knows the
/// fleet and the per-node clock history.
enum class WireError : std::uint8_t {
  kNone = 0,
  kTruncated,   ///< shorter than the header, or length != 28 + 8 * count
  kBadMagic,    ///< first four bytes are not FKT1
  kBadVersion,  ///< unsupported version, or reserved field nonzero
  kBadCount,    ///< sample count 0 or > kMaxSamplesPerDatagram
  kChecksum,    ///< FNV-1a mismatch (bit rot, torn write, wrong framing)
  kBadSample,   ///< a sample is NaN, infinite, or negative
};

/// Stable lower-snake name for metrics / logs ("truncated", "bad_magic",
/// "bad_version", "bad_count", "checksum", "bad_sample"; kNone -> "none").
const char* wire_error_name(WireError error) noexcept;
inline constexpr std::size_t kWireErrorCount = 6;  ///< excluding kNone

/// One decoded (or to-be-encoded) batch.  `samples[0..count)` are valid.
struct WireBatch {
  std::uint16_t service = 0;
  std::uint32_t node = 0;
  std::uint64_t timestamp_ns = 0;
  std::uint16_t count = 0;
  std::array<double, kMaxSamplesPerDatagram> samples{};
};

/// Copy `from`'s header and its first `count` samples into `to`; `to`'s
/// samples past that keep whatever they held.  A datagram seldom fills all
/// kMaxSamplesPerDatagram slots, so this is the copy the ingest ring makes.
inline void assign_used(WireBatch& to, const WireBatch& from) noexcept {
  to.service = from.service;
  to.node = from.node;
  to.timestamp_ns = from.timestamp_ns;
  to.count = static_cast<std::uint16_t>(
      std::min<std::size_t>(from.count, kMaxSamplesPerDatagram));
  std::copy_n(from.samples.begin(), to.count, to.samples.begin());
}

/// FNV-1a 32-bit over `len` bytes.
std::uint32_t wire_checksum(const std::uint8_t* data, std::size_t len) noexcept;

/// Encode `batch` into `out` (capacity `cap`); returns the number of bytes
/// written, or 0 when the batch is invalid (count out of range, bad
/// samples) or the buffer too small.  An encode that returns nonzero is
/// guaranteed to decode() back to an equal batch.
std::size_t encode(const WireBatch& batch, std::uint8_t* out,
                   std::size_t cap) noexcept;
/// Convenience allocation-based encode; empty vector on invalid batch.
std::vector<std::uint8_t> encode(const WireBatch& batch);

/// Decode `len` bytes into `out`.  Returns kNone and fills `out` on
/// success; otherwise returns the (first) rejection reason and leaves
/// `out` unspecified.  Never reads past `data + len`, never throws.
WireError decode(const std::uint8_t* data, std::size_t len,
                 WireBatch& out) noexcept;

}  // namespace forktail::serve
