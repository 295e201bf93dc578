// Vector replay engine implementation, instantiated once per ISA level.
//
// Including translation units define:
//   FORKTAIL_VE_NS      -- namespace for this level (ve_generic, ve_avx2, ...)
//   FORKTAIL_VE_TARGET  -- per-function __attribute__((target(...))) for the
//                          level, empty for the baseline build.
//
// Every hot loop lives in a FORKTAIL_VE_TARGET function; the block helpers
// it calls (XoshiroBlock::fill, LaneSampler::fill, vec_log/vec_exp, ...) are
// force-inlined (FORKTAIL_VEC_INLINE) so their loops compile at the caller's
// ISA.  All TUs themselves build at the baseline -march with
// -ffp-contract=off, which keeps two guarantees:
//   * no out-of-line COMDAT symbol (std::vector internals, Welford methods,
//     ...) is ever emitted with a higher ISA encoding, so linker symbol
//     merging cannot smuggle AVX code into a baseline code path;
//   * no fused multiply-adds anywhere in the engine, so every level
//     executes the same IEEE-754 operations and results are bit-identical
//     across generic/avx2/avx512 (asserted by tests/test_replay_vector.cpp).
//
// Determinism across sharding comes from the same three properties the
// legacy batched engines rely on: per-node RNG streams are derived from
// (seed, node index) alone; per-request completion maxima are exact and
// order-independent (MaxArena row merge); and moment accumulators are kept
// per node lane and merged in a fixed node order.

#ifndef FORKTAIL_VE_NS
#error "vector_engine_impl.hpp must be included with FORKTAIL_VE_NS defined"
#endif
#ifndef FORKTAIL_VE_TARGET
#error "vector_engine_impl.hpp must be included with FORKTAIL_VE_TARGET defined"
#endif

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "dist/basic.hpp"
#include "dist/vec_sampler.hpp"
#include "fjsim/config.hpp"
#include "fjsim/replay.hpp"
#include "fjsim/telemetry.hpp"
#include "fjsim/vector_engine.hpp"
#include "stats/radix_argsort.hpp"
#include "stats/welford.hpp"
#include "util/thread_pool.hpp"
#include "util/vec_math.hpp"
#include "util/vec_rng.hpp"

namespace forktail::fjsim {
namespace FORKTAIL_VE_NS {
namespace {

constexpr std::size_t kL = util::kVecLanes;  // 8

/// Demand tile size in requests (rows of 8 lanes).  The config `batch` knob
/// overrides it (0 = this default).  128 rows keeps the demand tile (8 KiB)
/// plus the arrival slice L1-resident -- at 1024 rows the fill->replay
/// round trip streamed 64 KiB through L2 and cost ~15% of replay
/// throughput.  One-draw distributions produce bit-identical results for
/// every tile size (asserted by tests); Erlang's stage-major block draw
/// order IS tile-dependent, so this default is part of the engine's golden
/// definition (docs/performance.md).
constexpr std::size_t kDefaultTileRows = 128;

std::size_t resolve_tile(std::size_t batch) {
  return batch == 0 ? kDefaultTileRows : batch;
}

std::uint64_t warmup_count(std::uint64_t num_requests, double warmup_fraction) {
  return static_cast<std::uint64_t>(warmup_fraction / (1.0 - warmup_fraction) *
                                    static_cast<double>(num_requests));
}

std::size_t resolve_parallelism(std::size_t max_parallelism) {
  return max_parallelism > 0
             ? max_parallelism
             : std::max<std::size_t>(1, util::global_pool().size());
}

// ---------------------------------------------------------------------------
// Per-lane moment accumulators (structure of arrays).
//
// Raw power sums (count, sum, sum of squares) instead of the scalar
// engines' Welford recurrence: the Welford mean update divides by the
// running count EVERY sample, and that vector divide dominated the Lindley
// tile.  The sums convert to Welford parts at lane extraction
// (mean = S1/S0, m2 = S2 - S1^2/S0); for replay response magnitudes the
// conversion agrees with sequential Welford to ~1e-12 relative -- a
// documented golden change, pinned statistically by
// tests/test_replay_vector.cpp.  Accumulation order is sample order per
// lane regardless of tile partition, so thread/batch invariance of the
// vector engine's own output is unaffected.
// ---------------------------------------------------------------------------
struct LaneStats {
  double cnt[kL]{};
  double sum[kL]{};
  double sq[kL]{};
  double mn[kL];
  double mx[kL];

  LaneStats() {
    for (std::size_t l = 0; l < kL; ++l) {
      mn[l] = std::numeric_limits<double>::infinity();
      mx[l] = -std::numeric_limits<double>::infinity();
    }
  }

  stats::Welford lane(std::size_t l) const {
    if (cnt[l] == 0.0) {
      return stats::Welford::from_parts(0, 0.0, 0.0, mn[l], mx[l]);
    }
    const double mean = sum[l] / cnt[l];
    double m2 = sq[l] - sum[l] * mean;
    m2 = m2 > 0.0 ? m2 : 0.0;  // cancellation can leave a tiny negative
    return stats::Welford::from_parts(static_cast<std::uint64_t>(cnt[l]),
                                      mean, m2, mn[l], mx[l]);
  }
};

/// One moment step on lane `l` of raw SoA accumulator arrays.  The explicit
/// fma is one exact IEEE op on every ISA level (see util/vec_math.hpp).
FORKTAIL_VEC_INLINE void moment_step(double* __restrict cnt,
                                     double* __restrict sum,
                                     double* __restrict sq,
                                     double* __restrict mn,
                                     double* __restrict mx, std::size_t l,
                                     double x) noexcept {
  cnt[l] += 1.0;
  sum[l] += x;
  sq[l] = std::fma(x, x, sq[l]);
  mn[l] = x < mn[l] ? x : mn[l];
  mx[l] = x > mx[l] ? x : mx[l];
}

/// Horizontal max of 8 lanes as a halving reduction (high half onto low
/// half, twice, then one scalar max).  The shape matters: written as a
/// pairwise tree over adjacent elements, GCC's SLP lowers it to ~13
/// element-extract + scalar-max ops, all fighting for the shuffle port; the
/// halving form maps to extract-half + packed-max at each level (6 ops).
/// Max is exactly associative/commutative, so the result is bit-identical
/// either way.
FORKTAIL_VEC_INLINE double hmax8(const double* __restrict c) noexcept {
  double t4[4];
  for (std::size_t l = 0; l < 4; ++l) t4[l] = c[l] > c[l + 4] ? c[l] : c[l + 4];
  double t2[2];
  for (std::size_t l = 0; l < 2; ++l) t2[l] = t4[l] > t4[l + 2] ? t4[l] : t4[l + 2];
  return t2[0] > t2[1] ? t2[0] : t2[1];
}

// ---------------------------------------------------------------------------
// Lindley tile kernels
// ---------------------------------------------------------------------------

/// Replay one arrival tile through 8 node lanes: SoA Lindley recursion with
/// per-lane Welford and a completion-max row fold.  `check_warmup`/`stats`
/// are compile-time constants at every call site (the callers pass
/// literals), so the dead branches fold away after force-inlining.
///
/// Accumulators and next-free state are copied to locals for the tile:
/// row[.] stores are double writes that could alias the accumulator fields,
/// and the locals keep the whole recurrent state in vector registers.
FORKTAIL_VEC_INLINE void lindley_tile(const double* __restrict arr,
                                      std::uint64_t t0, std::size_t len,
                                      double* __restrict dem,
                                      double* __restrict nf, LaneStats& ls,
                                      double* __restrict row,
                                      std::uint64_t warmup, bool check_warmup,
                                      bool stats) noexcept {
  double nfl[kL], cnt[kL], sum[kL], sq[kL], mn[kL], mx[kL];
  for (std::size_t l = 0; l < kL; ++l) {
    nfl[l] = nf[l];
    cnt[l] = ls.cnt[l];
    sum[l] = ls.sum[l];
    sq[l] = ls.sq[l];
    mn[l] = ls.mn[l];
    mx[l] = ls.mx[l];
  }
  for (std::size_t i = 0; i < len; ++i) {
    const double a = arr[i];
    double c[kL];
    for (std::size_t l = 0; l < kL; ++l) {
      double v = nfl[l] < a ? a : nfl[l];
      v += dem[i * kL + l];
      nfl[l] = v;
      c[l] = v;
    }
    if (stats && (!check_warmup || t0 + i >= warmup)) {
      for (std::size_t l = 0; l < kL; ++l) {
        moment_step(cnt, sum, sq, mn, mx, l, c[l] - a);
      }
      const double m = hmax8(c);
      row[t0 + i] = row[t0 + i] > m ? row[t0 + i] : m;
    }
  }
  for (std::size_t l = 0; l < kL; ++l) {
    nf[l] = nfl[l];
    ls.cnt[l] = cnt[l];
    ls.sum[l] = sum[l];
    ls.sq[l] = sq[l];
    ls.mn[l] = mn[l];
    ls.mx[l] = mx[l];
  }
}

/// Round-robin replica variant: each lane owns `replicas` next-free servers
/// cycled per request (FastNode/LindleyState round-robin semantics).  The
/// replica cursor is uniform across lanes, so the inner lane loop still
/// vectorizes; next-free state goes through memory (nf[replicas][8]).
FORKTAIL_VEC_INLINE std::size_t lindley_tile_rr(
    const double* __restrict arr, std::uint64_t t0, std::size_t len,
    double* __restrict dem, double* __restrict nf, std::size_t replicas,
    std::size_t rep0, LaneStats& ls, double* __restrict row,
    std::uint64_t warmup, bool check_warmup, bool stats) noexcept {
  double cnt[kL], sum[kL], sq[kL], mn[kL], mx[kL];
  for (std::size_t l = 0; l < kL; ++l) {
    cnt[l] = ls.cnt[l];
    sum[l] = ls.sum[l];
    sq[l] = ls.sq[l];
    mn[l] = ls.mn[l];
    mx[l] = ls.mx[l];
  }
  std::size_t rep = rep0;
  for (std::size_t i = 0; i < len; ++i) {
    const double a = arr[i];
    double* __restrict nfr = nf + rep * kL;
    double c[kL];
    for (std::size_t l = 0; l < kL; ++l) {
      double v = nfr[l] < a ? a : nfr[l];
      v += dem[i * kL + l];
      nfr[l] = v;
      c[l] = v;
    }
    if (stats && (!check_warmup || t0 + i >= warmup)) {
      for (std::size_t l = 0; l < kL; ++l) {
        moment_step(cnt, sum, sq, mn, mx, l, c[l] - a);
      }
      const double m = hmax8(c);
      row[t0 + i] = row[t0 + i] > m ? row[t0 + i] : m;
    }
    rep = rep + 1 == replicas ? 0 : rep + 1;
  }
  for (std::size_t l = 0; l < kL; ++l) {
    ls.cnt[l] = cnt[l];
    ls.sum[l] = sum[l];
    ls.sq[l] = sq[l];
    ls.mn[l] = mn[l];
    ls.mx[l] = mx[l];
  }
  return rep;
}

/// Pipeline variant: the row (stage completion) fold is UNCONDITIONAL --
/// downstream stages consume every request's completion, warm-up included
/// -- while per-task stats are gated by a per-index measured mask (request
/// ids arrive shuffled by upstream completion order).
FORKTAIL_VEC_INLINE void lindley_tile_mask(
    const double* __restrict arr, std::uint64_t t0, std::size_t len,
    double* __restrict dem, double* __restrict nf, LaneStats& ls,
    double* __restrict row, const unsigned char* __restrict meas) noexcept {
  double nfl[kL], cnt[kL], sum[kL], sq[kL], mn[kL], mx[kL];
  for (std::size_t l = 0; l < kL; ++l) {
    nfl[l] = nf[l];
    cnt[l] = ls.cnt[l];
    sum[l] = ls.sum[l];
    sq[l] = ls.sq[l];
    mn[l] = ls.mn[l];
    mx[l] = ls.mx[l];
  }
  for (std::size_t i = 0; i < len; ++i) {
    const double a = arr[i];
    double c[kL];
    for (std::size_t l = 0; l < kL; ++l) {
      double v = nfl[l] < a ? a : nfl[l];
      v += dem[i * kL + l];
      nfl[l] = v;
      c[l] = v;
    }
    const double m = hmax8(c);
    row[t0 + i] = row[t0 + i] > m ? row[t0 + i] : m;
    // Branch-free masked accumulation: the measured flag is shuffled by the
    // upstream completion order, so a branch here mispredicts constantly.
    // With g in {0,1} every masked-off op is an exact identity (x*0 adds
    // 0.0, min/max against +-inf), so the sums are bit-identical to the
    // branchy form.
    const double g = meas[t0 + i] ? 1.0 : 0.0;
    const bool on = meas[t0 + i] != 0;
    for (std::size_t l = 0; l < kL; ++l) {
      const double x = c[l] - a;
      const double xg = x * g;
      cnt[l] += g;
      sum[l] += xg;
      sq[l] = std::fma(xg, x, sq[l]);
      const double xmn = on ? x : std::numeric_limits<double>::infinity();
      const double xmx = on ? x : -std::numeric_limits<double>::infinity();
      mn[l] = xmn < mn[l] ? xmn : mn[l];
      mx[l] = xmx > mx[l] ? xmx : mx[l];
    }
  }
  for (std::size_t l = 0; l < kL; ++l) {
    nf[l] = nfl[l];
    ls.cnt[l] = cnt[l];
    ls.sum[l] = sum[l];
    ls.sq[l] = sq[l];
    ls.mn[l] = mn[l];
    ls.mx[l] = mx[l];
  }
}

// ---------------------------------------------------------------------------
// Arrival generation
// ---------------------------------------------------------------------------

/// Poisson arrival epochs from the scalar stream `Rng(seed)` would walk, but
/// with the engine's block transforms: one u64 per arrival (branch-free
/// uniform_pos clamp instead of rejection), vec_log instead of libm.  The
/// raw u64 stream equals the legacy arrival stream; the epoch VALUES differ
/// in the last ulps (documented golden change).
FORKTAIL_VE_TARGET void gen_arrivals(std::uint64_t seed, double mean,
                                     std::vector<double>& out) {
  util::Xoshiro256pp eng(seed);
  constexpr std::size_t kChunk = 4096;
  std::uint64_t raw[kChunk];
  double gap[kChunk];
  double t = 0.0;
  const std::size_t total = out.size();
  for (std::size_t base = 0; base < total; base += kChunk) {
    const std::size_t n = std::min(kChunk, total - base);
    for (std::size_t i = 0; i < n; ++i) raw[i] = eng();
    util::unit_pos_block(raw, gap, n);
    util::log_block_inplace(gap, n);
    for (std::size_t i = 0; i < n; ++i) {
      t += gap[i] * -mean;
      out[base + i] = t;
    }
  }
}

// ---------------------------------------------------------------------------
// Node groups
// ---------------------------------------------------------------------------

/// One 8-lane shard of nodes sharing a VecClass.  `node_ids` are global node
/// indices (lane l serves node_ids[l]); lanes beyond node_ids.size() are
/// inactive (demand 0, never read back).
struct GroupDef {
  std::vector<std::uint32_t> node_ids;
  std::vector<dist::LaneSampler::Lane> lanes;
};

/// Chunk `nodes` (already filtered to one VecClass) into 8-lane groups.
/// `seed_of(node)` gives the lane's RNG stream seed -- the exact
/// Rng::split_seed value the legacy engine uses for that node.
template <typename SeedOf>
void append_groups(std::vector<GroupDef>& groups,
                   const std::vector<std::uint32_t>& nodes,
                   const dist::Distribution* const* dists, SeedOf&& seed_of) {
  for (std::size_t base = 0; base < nodes.size(); base += kL) {
    const std::size_t cnt = std::min(kL, nodes.size() - base);
    GroupDef g;
    g.node_ids.assign(nodes.begin() + static_cast<std::ptrdiff_t>(base),
                      nodes.begin() + static_cast<std::ptrdiff_t>(base + cnt));
    g.lanes.reserve(cnt);
    for (std::size_t l = 0; l < cnt; ++l) {
      const std::uint32_t node = g.node_ids[l];
      g.lanes.push_back({dists[node], seed_of(node)});
    }
    groups.push_back(std::move(g));
  }
}

/// Tiled replay of one group over the full arrival sequence, with the
/// legacy warm-up tile split (pure warm-up tiles skip stats AND the row
/// fold -- nothing reads the merged row below `warmup`).  Returns the tile
/// count (for the fjsim.tiles counter, accumulated per group so the total
/// is independent of the block partition).
FORKTAIL_VE_TARGET std::uint64_t replay_group(
    dist::LaneSampler& sampler, const std::vector<double>& arrivals,
    std::uint64_t warmup, std::size_t tile_rows, std::size_t replicas,
    double* nf, LaneStats& ls, double* row, std::vector<double>& dembuf) {
  const std::uint64_t total = arrivals.size();
  if (dembuf.size() < tile_rows * kL) dembuf.resize(tile_rows * kL);
  std::uint64_t tiles = 0;
  std::size_t rep = 0;
  for (std::uint64_t t0 = 0; t0 < total; t0 += tile_rows, ++tiles) {
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(tile_rows, total - t0));
    sampler.fill(dembuf.data(), len);
    const double* arr = arrivals.data() + t0;
    if (replicas == 1) {
      if (t0 + len <= warmup) {
        lindley_tile(arr, t0, len, dembuf.data(), nf, ls, row, warmup, false,
                     false);
      } else if (t0 >= warmup) {
        lindley_tile(arr, t0, len, dembuf.data(), nf, ls, row, warmup, false,
                     true);
      } else {
        lindley_tile(arr, t0, len, dembuf.data(), nf, ls, row, warmup, true,
                     true);
      }
    } else {
      if (t0 + len <= warmup) {
        rep = lindley_tile_rr(arr, t0, len, dembuf.data(), nf, replicas, rep,
                              ls, row, warmup, false, false);
      } else if (t0 >= warmup) {
        rep = lindley_tile_rr(arr, t0, len, dembuf.data(), nf, replicas, rep,
                              ls, row, warmup, false, true);
      } else {
        rep = lindley_tile_rr(arr, t0, len, dembuf.data(), nf, replicas, rep,
                              ls, row, warmup, true, true);
      }
    }
  }
  return tiles;
}

/// Pipeline-stage group replay: same tiling, measured-mask stats.
FORKTAIL_VE_TARGET void replay_group_mask(dist::LaneSampler& sampler,
                                          const std::vector<double>& arrivals,
                                          const unsigned char* meas,
                                          std::size_t tile_rows, double* nf,
                                          LaneStats& ls, double* row,
                                          std::vector<double>& dembuf) {
  const std::uint64_t total = arrivals.size();
  if (dembuf.size() < tile_rows * kL) dembuf.resize(tile_rows * kL);
  for (std::uint64_t t0 = 0; t0 < total; t0 += tile_rows) {
    const auto len = static_cast<std::size_t>(
        std::min<std::uint64_t>(tile_rows, total - t0));
    sampler.fill(dembuf.data(), len);
    lindley_tile_mask(arrivals.data() + t0, t0, len, dembuf.data(), nf, ls,
                      row, meas);
  }
}

// ---------------------------------------------------------------------------
// Stable sort on positive-double keys (pipeline stage reorder)
// ---------------------------------------------------------------------------

/// Scratch shared by the bucket path (hist) and the radix fallback.
struct SortScratch {
  std::vector<std::uint32_t> hist;
  stats::RadixArgsort radix;
};

/// Sort `idx` so completion[idx[i]] is non-decreasing, ties by original
/// index (stable -- a documented deviation from the legacy std::sort, whose
/// tie order is unspecified).  Stage completions are spread nearly
/// uniformly over the arrival window, so a single bucket-scatter pass puts
/// the permutation within a handful of slots of sorted order and one
/// insertion repair sweep finishes it -- O(n) end to end, ~4x faster than
/// the radix fallback that handles pathological clustering.
FORKTAIL_VE_TARGET void sort_by_completion(const std::vector<double>& completion,
                                           std::vector<std::uint32_t>& idx,
                                           SortScratch& rs) {
  const std::size_t n = completion.size();
  idx.resize(n);
  if (n < 2) {
    if (n == 1) idx[0] = 0;
    return;
  }
  const double* __restrict c = completion.data();
  double mn = c[0], mx = c[0];
  for (std::size_t i = 1; i < n; ++i) {
    mn = c[i] < mn ? c[i] : mn;
    mx = c[i] > mx ? c[i] : mx;
  }
  if (!(mx > mn)) {  // all equal: identity is the stable order
    for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
    return;
  }
  // Average bucket occupancy 2: halves the histogram footprint, and the
  // repair sweep handles occupancy-sized disorder for free.
  const std::size_t nb = n / 2 + 1;
  const double scale = static_cast<double>(nb) / (mx - mn);
  const auto bucket_of = [&](double v) {
    auto b = static_cast<std::size_t>((v - mn) * scale);
    return b < nb ? b : nb - 1;
  };
  rs.hist.assign(nb + 1, 0);
  std::uint32_t* __restrict hist = rs.hist.data();
  std::uint32_t peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t h = ++hist[bucket_of(c[i])];
    peak = h > peak ? h : peak;
  }
  // A spike this deep would make the quadratic repair sweep the hot spot;
  // hand off to the stable radix argsort instead (same output: both give
  // THE stable (value, original index) order, at value-independent cost).
  if (peak > 64) {
    rs.radix.sort(completion);
    const std::span<const std::uint32_t> order = rs.radix.order();
    std::copy(order.begin(), order.end(), idx.begin());
    return;
  }
  std::uint32_t off = 0;
  for (std::size_t b = 0; b < nb; ++b) {
    const std::uint32_t cnt = hist[b];
    hist[b] = off;
    off += cnt;
  }
  std::uint32_t* __restrict out = idx.data();
  for (std::size_t i = 0; i < n; ++i) {
    out[hist[bucket_of(c[i])]++] = static_cast<std::uint32_t>(i);
  }
  // Insertion repair: buckets are ordered by construction, so only
  // within-bucket inversions remain.  The strict `<` keeps equal keys in
  // scatter (= original index) order: stability preserved.
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t v = out[i];
    const double key = c[v];
    if (key >= c[out[i - 1]]) continue;
    std::size_t j = i;
    do {
      out[j] = out[j - 1];
      --j;
    } while (j > 0 && c[out[j - 1]] > key);
    out[j] = v;
  }
}

// ---------------------------------------------------------------------------
// Homogeneous / heterogeneous engines (shared shard driver)
// ---------------------------------------------------------------------------

struct ShardedReplay {
  MaxArena arena;
  std::vector<stats::Welford> node_stats;
  std::size_t num_blocks;
};

/// Shard `groups` over the pool (one MaxArena row per block), replay each
/// group tiled, and collect per-node Welfords in node order.  Per-block
/// telemetry mirrors the legacy engines: block_seconds span plus
/// warmup/measured task counters; the tiles counter accumulates per GROUP
/// so its total is invariant under the block partition (unlike the legacy
/// batched path, whose per-block tile count varies with the pool width).
ShardedReplay replay_sharded(const std::vector<GroupDef>& groups,
                             std::size_t num_nodes,
                             const std::vector<double>& arrivals,
                             std::uint64_t warmup, std::size_t tile_rows,
                             std::size_t replicas, std::size_t parallelism) {
  const std::uint64_t total = arrivals.size();
  const std::size_t num_blocks =
      std::min<std::size_t>(std::max<std::size_t>(groups.size(), 1),
                            parallelism);
  ShardedReplay out{MaxArena(num_blocks, total),
                    std::vector<stats::Welford>(num_nodes), num_blocks};

  const auto replay_block = [&](std::size_t b) {
    const std::size_t glo = groups.size() * b / num_blocks;
    const std::size_t ghi = groups.size() * (b + 1) / num_blocks;
    const obs::ScopedSpan block_span(ReplayMetrics::get().block_seconds);
    std::size_t block_nodes = 0;
    for (std::size_t g = glo; g < ghi; ++g) {
      block_nodes += groups[g].node_ids.size();
    }
    ReplayMetrics::get().tasks_warmup.add(warmup * block_nodes);
    ReplayMetrics::get().tasks_measured.add((total - warmup) * block_nodes);
    double* row = out.arena.row(b).data();
    std::vector<double> dembuf(tile_rows * kL);
    std::vector<double> nf(replicas * kL);
    std::uint64_t tiles = 0;
    for (std::size_t g = glo; g < ghi; ++g) {
      const GroupDef& def = groups[g];
      dist::LaneSampler sampler(
          std::span<const dist::LaneSampler::Lane>(def.lanes));
      std::fill(nf.begin(), nf.end(), 0.0);
      LaneStats ls;
      tiles += replay_group(sampler, arrivals, warmup, tile_rows, replicas,
                            nf.data(), ls, row, dembuf);
      for (std::size_t l = 0; l < def.node_ids.size(); ++l) {
        out.node_stats[def.node_ids[l]] = ls.lane(l);
      }
    }
    ReplayMetrics::get().tiles.add(tiles);
  };
  if (num_blocks == 1) {
    replay_block(0);
  } else {
    util::parallel_for(util::global_pool(), 0, num_blocks, replay_block);
  }
  return out;
}

HomogeneousResult homogeneous_impl(const HomogeneousConfig& config) {
  validate(config);
  if (!vector_supports(config)) {
    throw ConfigError("HomogeneousConfig.engine",
                      "Engine::kVector does not support Policy::kRedundant "
                      "(use Engine::kLegacy)");
  }
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);

  const double lambda = config.load * static_cast<double>(config.replicas) /
                        config.service->mean();
  const std::uint64_t warmup =
      warmup_count(config.num_requests, config.warmup_fraction);
  const std::uint64_t total = warmup + config.num_requests;
  const std::size_t tile_rows = resolve_tile(config.batch);

  std::vector<double> arrivals(total);
  gen_arrivals(util::Rng::split_seed(config.seed, 0), 1.0 / lambda, arrivals);

  std::vector<std::uint32_t> nodes(config.num_nodes);
  std::iota(nodes.begin(), nodes.end(), 0u);
  std::vector<const dist::Distribution*> dists(config.num_nodes,
                                               config.service.get());
  std::vector<GroupDef> groups;
  append_groups(groups, nodes, dists.data(), [&](std::uint32_t node) {
    return util::Rng::split_seed(config.seed, 100 + node);
  });

  ShardedReplay sr = replay_sharded(
      groups, config.num_nodes, arrivals, warmup, tile_rows,
      static_cast<std::size_t>(config.replicas),
      resolve_parallelism(config.max_parallelism));

  HomogeneousResult result;
  result.lambda = lambda;
  result.total_tasks = total * config.num_nodes;
  result.responses.reserve(config.num_requests);
  const std::span<const double> merged = sr.arena.merged(sr.num_blocks);
  for (std::uint64_t j = warmup; j < total; ++j) {
    result.responses.push_back(merged[j] - arrivals[j]);
  }
  for (std::size_t n = 0; n < config.num_nodes; ++n) {
    result.task_stats.merge(sr.node_stats[n]);
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

HeterogeneousResult heterogeneous_impl(const HeterogeneousConfig& config) {
  const std::size_t n = config.services.size();
  if (n == 0) throw std::invalid_argument("run_heterogeneous: no nodes");
  if (!(config.lambda > 0.0)) {
    throw std::invalid_argument("run_heterogeneous: lambda <= 0");
  }
  double max_rho = 0.0;
  for (const auto& s : config.services) {
    if (!s) throw std::invalid_argument("run_heterogeneous: null service");
    max_rho = std::max(max_rho, config.lambda * s->mean());
  }
  if (max_rho >= 1.0) {
    throw std::invalid_argument(
        "run_heterogeneous: bottleneck node unstable (rho >= 1)");
  }
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);

  const std::uint64_t warmup =
      warmup_count(config.num_requests, config.warmup_fraction);
  const std::uint64_t total = warmup + config.num_requests;
  const std::size_t tile_rows = resolve_tile(config.batch);

  std::vector<double> arrivals(total);
  gen_arrivals(util::Rng::split_seed(config.seed, 0), 1.0 / config.lambda,
               arrivals);

  // Group nodes by VecClass (a LaneSampler's lanes must share a fill pass),
  // classes in first-appearance order, node ids ascending within a class:
  // a fixed rule, so grouping -- and therefore every result bit -- is
  // independent of thread count and dispatch level.
  std::vector<const dist::Distribution*> dists(n);
  for (std::size_t i = 0; i < n; ++i) dists[i] = config.services[i].get();
  std::vector<dist::VecClass> classes;
  std::vector<std::vector<std::uint32_t>> buckets;
  for (std::size_t i = 0; i < n; ++i) {
    const dist::VecClass c = dist::classify_vec(*dists[i]);
    std::size_t b = 0;
    while (b < classes.size() && !(classes[b] == c)) ++b;
    if (b == classes.size()) {
      classes.push_back(c);
      buckets.emplace_back();
    }
    buckets[b].push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<GroupDef> groups;
  for (const auto& bucket : buckets) {
    append_groups(groups, bucket, dists.data(), [&](std::uint32_t node) {
      return util::Rng::split_seed(config.seed, 100 + node);
    });
  }

  ShardedReplay sr =
      replay_sharded(groups, n, arrivals, warmup, tile_rows, 1,
                     resolve_parallelism(config.max_parallelism));

  HeterogeneousResult result;
  result.lambda = config.lambda;
  result.max_utilization = max_rho;
  result.node_stats = std::move(sr.node_stats);
  result.responses.reserve(config.num_requests);
  const std::span<const double> merged = sr.arena.merged(sr.num_blocks);
  for (std::uint64_t j = warmup; j < total; ++j) {
    result.responses.push_back(merged[j] - arrivals[j]);
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

// ---------------------------------------------------------------------------
// Pipeline engine
// ---------------------------------------------------------------------------

PipelineResult pipeline_impl(const PipelineConfig& config) {
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);
  if (config.stages.empty()) {
    throw std::invalid_argument("run_pipeline: no stages");
  }
  double slowest_mean = 0.0;
  for (const auto& stage : config.stages) {
    if (stage.num_nodes == 0 || !stage.service) {
      throw std::invalid_argument("run_pipeline: invalid stage");
    }
    slowest_mean = std::max(slowest_mean, stage.service->mean());
  }
  if (!(config.load > 0.0 && config.load < 1.0)) {
    throw std::invalid_argument("run_pipeline: load must be in (0,1)");
  }

  const double lambda = config.load / slowest_mean;
  const std::uint64_t warmup =
      warmup_count(config.num_requests, config.warmup_fraction);
  const std::uint64_t total = warmup + config.num_requests;
  const std::size_t tile_rows = resolve_tile(config.batch);
  const std::size_t parallelism = resolve_parallelism(config.max_parallelism);

  std::vector<double> origin(total);
  gen_arrivals(util::Rng::split_seed(config.seed, 0), 1.0 / lambda, origin);

  PipelineResult result;
  result.lambda = lambda;
  result.stage_task_stats.resize(config.stages.size());
  result.stage_latency_stats.resize(config.stages.size());

  std::vector<std::uint32_t> order(total);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> arrivals = origin;
  std::vector<double> completion(total);
  std::vector<unsigned char> meas(total);
  std::vector<std::uint32_t> idx;
  SortScratch rs;
  std::vector<std::uint32_t> next_order(total);
  std::vector<double> next_arrivals(total);

  for (std::size_t s = 0; s < config.stages.size(); ++s) {
    const PipelineStageConfig& stage = config.stages[s];
    for (std::uint64_t i = 0; i < total; ++i) {
      meas[i] = order[i] >= warmup ? 1 : 0;
    }

    std::vector<std::uint32_t> nodes(stage.num_nodes);
    std::iota(nodes.begin(), nodes.end(), 0u);
    std::vector<const dist::Distribution*> dists(stage.num_nodes,
                                                 stage.service.get());
    std::vector<GroupDef> groups;
    append_groups(groups, nodes, dists.data(), [&](std::uint32_t node) {
      return util::Rng::split_seed(config.seed, 1000 * (s + 1) + node);
    });

    const std::size_t num_blocks =
        std::min<std::size_t>(std::max<std::size_t>(groups.size(), 1),
                              parallelism);
    MaxArena arena(num_blocks, total);
    std::vector<stats::Welford> node_stats(stage.num_nodes);
    const auto replay_block = [&](std::size_t b) {
      const std::size_t glo = groups.size() * b / num_blocks;
      const std::size_t ghi = groups.size() * (b + 1) / num_blocks;
      const obs::ScopedSpan block_span(ReplayMetrics::get().block_seconds);
      double* row = arena.row(b).data();
      std::vector<double> dembuf(tile_rows * kL);
      double nf[kL];
      for (std::size_t g = glo; g < ghi; ++g) {
        const GroupDef& def = groups[g];
        dist::LaneSampler sampler(
            std::span<const dist::LaneSampler::Lane>(def.lanes));
        std::fill(nf, nf + kL, 0.0);
        LaneStats ls;
        replay_group_mask(sampler, arrivals, meas.data(), tile_rows, nf, ls,
                          row, dembuf);
        for (std::size_t l = 0; l < def.node_ids.size(); ++l) {
          node_stats[def.node_ids[l]] = ls.lane(l);
        }
      }
    };
    if (num_blocks == 1) {
      replay_block(0);
    } else {
      util::parallel_for(util::global_pool(), 0, num_blocks, replay_block);
    }

    const std::span<const double> merged = arena.merged(num_blocks);
    std::copy(merged.begin(), merged.end(), completion.begin());
    // Stage task stats: per-node-lane Welfords merged in node order (the
    // legacy engine accumulates one shared Welford node-by-node; same
    // multiset of responses, different -- but fixed -- reduction order).
    for (std::size_t node = 0; node < stage.num_nodes; ++node) {
      result.stage_task_stats[s].merge(node_stats[node]);
    }
    // Stage latency stats: 8 masked lane sums (lane = i mod 8) folded in
    // lane order.  Equivalent-in-distribution to the legacy sequential
    // Welford over the same multiset; the reduction order is fixed, so the
    // result is deterministic and thread-count independent.
    {
      double lcnt[kL], lsum[kL], lsq[kL], lmn[kL], lmx[kL];
      for (std::size_t l = 0; l < kL; ++l) {
        lcnt[l] = 0.0;
        lsum[l] = 0.0;
        lsq[l] = 0.0;
        lmn[l] = std::numeric_limits<double>::infinity();
        lmx[l] = -std::numeric_limits<double>::infinity();
      }
      const double* __restrict cmp = completion.data();
      const double* __restrict arr = arrivals.data();
      const unsigned char* __restrict ms = meas.data();
      const std::uint64_t tiles = total / kL * kL;
      for (std::uint64_t i = 0; i < tiles; i += kL) {
        for (std::size_t l = 0; l < kL; ++l) {
          const double g = ms[i + l] ? 1.0 : 0.0;
          const bool on = ms[i + l] != 0;
          const double x = cmp[i + l] - arr[i + l];
          const double xg = x * g;
          lcnt[l] += g;
          lsum[l] += xg;
          lsq[l] = std::fma(xg, x, lsq[l]);
          const double xmn = on ? x : std::numeric_limits<double>::infinity();
          const double xmx = on ? x : -std::numeric_limits<double>::infinity();
          lmn[l] = xmn < lmn[l] ? xmn : lmn[l];
          lmx[l] = xmx > lmx[l] ? xmx : lmx[l];
        }
      }
      for (std::uint64_t i = tiles; i < total; ++i) {
        if (ms[i]) {
          const double x = cmp[i] - arr[i];
          lcnt[0] += 1.0;
          lsum[0] += x;
          lsq[0] = std::fma(x, x, lsq[0]);
          lmn[0] = x < lmn[0] ? x : lmn[0];
          lmx[0] = x > lmx[0] ? x : lmx[0];
        }
      }
      for (std::size_t l = 0; l < kL; ++l) {
        if (lcnt[l] == 0.0) continue;
        const double mean = lsum[l] / lcnt[l];
        double m2 = lsq[l] - lsum[l] * mean;
        m2 = m2 > 0.0 ? m2 : 0.0;
        result.stage_latency_stats[s].merge(stats::Welford::from_parts(
            static_cast<std::uint64_t>(lcnt[l]), mean, m2, lmn[l], lmx[l]));
      }
    }

    sort_by_completion(completion, idx, rs);
    for (std::uint64_t i = 0; i < total; ++i) {
      next_order[i] = order[idx[i]];
      next_arrivals[i] = completion[idx[i]];
    }
    std::swap(order, next_order);
    std::swap(arrivals, next_arrivals);
  }

  result.responses.reserve(config.num_requests);
  std::vector<double> final_completion(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    final_completion[order[i]] = arrivals[i];
  }
  for (std::uint64_t req = warmup; req < total; ++req) {
    result.responses.push_back(final_completion[req] - origin[req]);
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

// ---------------------------------------------------------------------------
// Subset engine (request-major; inherently serial over shared node state)
// ---------------------------------------------------------------------------

/// Pooled service-demand stream: 8 lockstep lanes refilled in blocks,
/// consumed linearly (task slot s -> row s/8, lane s%8).  Refill boundaries
/// depend only on the fixed capacity, so the consumed sequence is
/// deterministic.
struct DemandStream {
  dist::LaneSampler sampler;
  std::vector<double> buf;
  std::size_t pos = 0;
  std::size_t end = 0;

  DemandStream(std::span<const dist::LaneSampler::Lane> lanes,
               std::size_t capacity)
      : sampler(lanes), buf(capacity) {}
};

FORKTAIL_VE_TARGET void ds_refill(DemandStream& ds) {
  const std::size_t rem = ds.end - ds.pos;
  std::memmove(ds.buf.data(), ds.buf.data() + ds.pos, rem * sizeof(double));
  const std::size_t rows = (ds.buf.size() - rem) / kL;
  ds.sampler.fill(ds.buf.data() + rem, rows);
  ds.pos = 0;
  ds.end = rem + rows * kL;
}

/// Stream index bases for the subset engine's RNG streams.  0/1/2 mirror
/// the legacy arrival/pick/k streams; the demand lanes use a base far
/// outside the legacy per-node range (100 + node) so no stream is reused.
constexpr std::uint64_t kSubsetDemandStreamBase = std::uint64_t{1} << 40;

struct SubsetLoopState {
  const double* arrivals;
  std::uint64_t total, warmup;
  std::uint64_t pick_seed;
  std::size_t num_nodes;
  double* nf;                 // per-node next-free
  double* completion_max;     // per request
  int* request_k;             // nullptr unless group_by_k
  std::uint64_t* stamp;       // num_nodes epoch marks, all zero
  std::uint32_t* picks;       // k_max scratch
  double* cbuf;               // k_max scratch (task completions)
  LaneStats* ls;              // pooled task stats lanes
  std::uint64_t total_tasks = 0;
};

/// The request-major replay loop.  Node choice uses counter-hash darts with
/// a first-free-dart conflict fixup (uniform ordered distinct picks, like
/// the legacy partial Fisher-Yates but random-access and vectorizable);
/// task stats go through an 8-slot pending ring so the Welford lane of a
/// measured task is its global measured-slot index mod 8 -- invariant under
/// the tile size and (trivially) the thread count.  `ks[j]` is request j's
/// fan-out (drawn up front from the k stream, in arrival order like the
/// legacy engine).
///
/// Darts are pick_hash32(seed32, request, dart) reduced to [0, n) by the
/// Lemire multiply-shift -- all 32-bit ops, 16 lanes per AVX-512 vector,
/// and no u64->double->u32 round trip.  (The first cut used the 64-bit
/// counter_hash + bits_to_unit; the narrower pipeline measured ~17% faster
/// on subset-n100-k16 with indistinguishable pick statistics.)
FORKTAIL_VE_TARGET void subset_loop(SubsetLoopState& st, DemandStream& ds,
                                    const std::uint32_t* ks) {
  const auto nn32 = static_cast<std::uint32_t>(st.num_nodes);
  const auto s32 =
      static_cast<std::uint32_t>(st.pick_seed ^ (st.pick_seed >> 32));
  double pend[kL];
  std::size_t pc = 0;
  // Moment accumulators live in locals for the whole loop: moment_step
  // through the LaneStats reference would round-trip five accumulators
  // through memory at every flush, and the store-load chains were ~20% of
  // the loop.
  double cnt[kL], sum[kL], sq[kL], mn[kL], mx[kL];
  for (std::size_t l = 0; l < kL; ++l) {
    cnt[l] = st.ls->cnt[l];
    sum[l] = st.ls->sum[l];
    sq[l] = st.ls->sq[l];
    mn[l] = st.ls->mn[l];
    mx[l] = st.ls->mx[l];
  }
  for (std::uint64_t j = 0; j < st.total; ++j) {
    const double t = st.arrivals[j];
    const auto k = static_cast<std::size_t>(ks[j]);
    if (st.request_k != nullptr) st.request_k[j] = static_cast<int>(k);
    const auto j32 = static_cast<std::uint32_t>(j);
    // Darts: candidate i is hash_to_range(pick_hash32(s, j, i), n), one
    // vectorized block per request.
    for (std::size_t i = 0; i < k; ++i) {
      st.picks[i] = util::hash_to_range(
          util::pick_hash32(s32, j32, static_cast<std::uint32_t>(i)), nn32);
    }
    if (ds.end - ds.pos < k) ds_refill(ds);
    const double* __restrict dem = ds.buf.data() + ds.pos;
    ds.pos += k;
    // Fused conflict-fixup + service pass.  Membership is an epoch stamp
    // (stamp[p] == j+1 means "picked by THIS request"): one store per pick
    // instead of the bitmap's set-then-clear RMW pair, no cleanup sweep.
    // Conflicts redraw from a shared overflow counter in lane order,
    // exactly the pre-fusion pick sequence (service of pick i never
    // touches the stamps, so fusing cannot change which darts conflict).
    const std::uint64_t epoch = j + 1;
    auto ctr = static_cast<std::uint32_t>(k);
    for (std::size_t i = 0; i < k; ++i) {
      std::uint32_t p = st.picks[i];
      while (st.stamp[p] == epoch) {
        p = util::hash_to_range(util::pick_hash32(s32, j32, ctr++), nn32);
      }
      st.stamp[p] = epoch;
      double start = st.nf[p];
      start = start < t ? t : start;
      const double c = start + dem[i];
      st.nf[p] = c;
      st.cbuf[i] = c;
    }
    double m = 0.0;
    for (std::size_t i = 0; i < k; ++i) m = st.cbuf[i] > m ? st.cbuf[i] : m;
    st.completion_max[j] = m;
    st.total_tasks += k;
    if (j < st.warmup) continue;
    // Pooled task stats: lane of a measured task is its global
    // measured-slot index mod 8 (invariant under tile size and thread
    // count).  Aligned full blocks flush straight from cbuf; the ring
    // buffer only carries the misaligned head/tail.
    std::size_t i = 0;
    if (pc != 0) {
      while (i < k && pc < kL) pend[pc++] = st.cbuf[i++] - t;
      if (pc == kL) {
        for (std::size_t l = 0; l < kL; ++l) {
          moment_step(cnt, sum, sq, mn, mx, l, pend[l]);
        }
        pc = 0;
      }
    }
    for (; i + kL <= k; i += kL) {
      const double* __restrict c = st.cbuf + i;
      for (std::size_t l = 0; l < kL; ++l) {
        moment_step(cnt, sum, sq, mn, mx, l, c[l] - t);
      }
    }
    while (i < k) pend[pc++] = st.cbuf[i++] - t;
  }
  // Leftover pending slots map to lanes 0..pc-1 (flushes happen at
  // multiples of 8), added in lane order.
  for (std::size_t l = 0; l < pc; ++l) {
    moment_step(cnt, sum, sq, mn, mx, l, pend[l]);
  }
  for (std::size_t l = 0; l < kL; ++l) {
    st.ls->cnt[l] = cnt[l];
    st.ls->sum[l] = sum[l];
    st.ls->sq[l] = sq[l];
    st.ls->mn[l] = mn[l];
    st.ls->mx[l] = mx[l];
  }
}

SubsetResult subset_impl(const SubsetConfig& config) {
  const obs::ScopedSpan run_span(ReplayMetrics::get().run_seconds);
  validate(config);
  if (!vector_supports(config)) {
    throw ConfigError("SubsetConfig.engine",
                      "Engine::kVector requires replicas == 1, early_k == 0 "
                      "and no Policy::kRedundant (use Engine::kLegacy)");
  }
  const double mean_k =
      config.k_mode == KMode::kFixed
          ? static_cast<double>(config.k_fixed)
          : 0.5 * static_cast<double>(config.k_lo + config.k_hi);
  const double lambda = config.load * static_cast<double>(config.num_nodes) /
                        (mean_k * config.service->mean());
  const std::uint64_t warmup =
      warmup_count(config.num_requests, config.warmup_fraction);
  const std::uint64_t total = warmup + config.num_requests;

  std::vector<double> arrivals(total);
  gen_arrivals(util::Rng::split_seed(config.seed, 0), 1.0 / lambda, arrivals);

  const auto k_max = static_cast<std::size_t>(
      config.k_mode == KMode::kFixed ? config.k_fixed : config.k_hi);
  std::vector<dist::LaneSampler::Lane> demand_lanes(kL);
  for (std::size_t l = 0; l < kL; ++l) {
    demand_lanes[l] = {config.service.get(),
                       util::Rng::split_seed(config.seed,
                                             kSubsetDemandStreamBase + l)};
  }
  // Capacity: an L1-resident refill block (8 KiB -- the same residency
  // argument as kDefaultTileRows: a 64 KiB block meant demands were
  // written ~500 requests before being read back, long since evicted to
  // L2) and comfortably more than two maximal requests, rounded to whole
  // rows.  The stream consumes linearly, so the block size never changes
  // one-draw demand order; it IS part of the golden definition for
  // stage-major (Erlang) services, like the tile default.
  const std::size_t capacity =
      std::max<std::size_t>(std::size_t{128} * kL,
                            ((2 * k_max + kL) / kL) * kL);
  DemandStream ds(std::span<const dist::LaneSampler::Lane>(demand_lanes),
                  capacity);

  std::vector<double> nf(config.num_nodes, 0.0);
  std::vector<double> completion_max(total, 0.0);
  std::vector<int> request_k(config.group_by_k ? total : 0);
  std::vector<std::uint64_t> stamp(config.num_nodes, 0);
  std::vector<std::uint32_t> picks(k_max);
  std::vector<double> cbuf(k_max);
  LaneStats ls;

  SubsetLoopState st;
  st.arrivals = arrivals.data();
  st.total = total;
  st.warmup = warmup;
  st.pick_seed = util::Rng::split_seed(config.seed, 1);
  st.num_nodes = config.num_nodes;
  st.nf = nf.data();
  st.completion_max = completion_max.data();
  st.request_k = config.group_by_k ? request_k.data() : nullptr;
  st.stamp = stamp.data();
  st.picks = picks.data();
  st.cbuf = cbuf.data();
  st.ls = &ls;

  // Fan-out sequence, drawn from the k stream in arrival order exactly as
  // the legacy engine does (same stream, same consumption order).
  std::vector<std::uint32_t> ks(total);
  if (config.k_mode == KMode::kFixed) {
    std::fill(ks.begin(), ks.end(),
              static_cast<std::uint32_t>(config.k_fixed));
  } else {
    util::Rng k_rng(util::Rng::split_seed(config.seed, 2));
    for (auto& k : ks) {
      k = static_cast<std::uint32_t>(
          k_rng.uniform_int(config.k_lo, config.k_hi));
    }
  }
  subset_loop(st, ds, ks.data());

  SubsetResult result;
  result.lambda = lambda;
  result.mean_k = mean_k;
  result.total_tasks = st.total_tasks;
  for (std::size_t l = 0; l < kL; ++l) result.task_stats.merge(ls.lane(l));
  result.responses.reserve(config.num_requests);
  for (std::uint64_t j = warmup; j < total; ++j) {
    const double response = completion_max[j] - arrivals[j];
    result.responses.push_back(response);
    if (config.group_by_k) {
      result.responses_by_k[request_k[j]].push_back(response);
    }
  }
  ReplayMetrics::get().runs.add(1);
  return result;
}

// ---------------------------------------------------------------------------
// Perfect sampler (homogeneous mode)
// ---------------------------------------------------------------------------

/// The walk state: the gap and service lane samplers (reseeded per draw)
/// and the per-draw scratch.  Buffers hold one check_interval block:
/// ceil(ci / 8) gap rows and ceil(ci N / 8) service rows.
struct PerfectWalk {
  dist::LaneSampler gaps;
  dist::LaneSampler services;
  std::size_t gap_rows;
  std::size_t service_rows;
  std::vector<double> gap_buf;
  std::vector<double> service_buf;
  std::vector<double> prefix;  // s_i: accumulated service mass
  std::vector<double> peak;    // M_i: running max of prefix - gap_sum
  std::vector<double> sojourns;
};

/// One draw rooted at `root`: the reversed Loynes walk of run_perfect's
/// homogeneous mode, one check_interval block per sampler fill, until the
/// Lundberg certificate drops below epsilon; then the tagged request's
/// task sojourns (peak_i + a fresh service) into w.sojourns.  Returns the
/// walk depth.
FORKTAIL_VE_TARGET std::uint64_t perfect_draw(PerfectWalk& w,
                                              std::uint64_t root,
                                              const PerfectSamplerConfig& config,
                                              double theta) {
  for (std::size_t l = 0; l < kL; ++l) {
    w.gaps.reseed(l, util::Rng::split_seed(root, l));
    w.services.reseed(l, util::Rng::split_seed(root, kL + l));
  }
  const std::size_t n = config.num_nodes;
  const std::uint64_t ci = config.check_interval;
  double* __restrict prefix = w.prefix.data();
  double* __restrict peak = w.peak.data();
  for (std::size_t i = 0; i < n; ++i) {
    prefix[i] = 0.0;
    peak[i] = 0.0;
  }
  double gap_sum = 0.0;
  std::uint64_t steps = 0;
  for (;;) {
    w.gaps.fill(w.gap_buf.data(), w.gap_rows);
    w.services.fill(w.service_buf.data(), w.service_rows);
    const double* gap = w.gap_buf.data();
    for (std::uint64_t c = 0; c < ci; ++c) {
      gap_sum += gap[c];
      const double* __restrict s = w.service_buf.data() + c * n;
      for (std::size_t i = 0; i < n; ++i) {
        prefix[i] += s[i];
        const double lag = prefix[i] - gap_sum;
        peak[i] = peak[i] < lag ? lag : peak[i];
      }
    }
    steps += ci;
    // The certificate of run_perfect, term for term.
    double failure = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      failure += std::exp(-theta * (peak[i] - (prefix[i] - gap_sum)));
      if (failure > config.epsilon) break;
    }
    if (failure <= config.epsilon) break;
    if (steps >= config.max_steps) {
      throw std::runtime_error(
          "perfect sampler: coupling certificate did not coalesce within " +
          std::to_string(config.max_steps) +
          " reversed steps (load too close to 1?)");
    }
  }
  w.services.fill(w.service_buf.data(), (n + kL - 1) / kL);
  for (std::size_t i = 0; i < n; ++i) {
    w.sojourns[i] = peak[i] + w.service_buf[i];
  }
  return steps;
}

PerfectSampleResult perfect_impl(const PerfectSamplerConfig& config) {
  const PerfectWalkParams params = perfect_walk_params(config);
  if (!vector_supports(config)) {
    throw ConfigError("PerfectSamplerConfig.engine",
                      "Engine::kVector samples homogeneous mode only (use "
                      "Engine::kLegacy for subset mode)");
  }
  const std::size_t n = config.num_nodes;
  const auto ci = static_cast<std::size_t>(config.check_interval);
  const dist::Exponential gap_dist(1.0 / params.lambda);
  // Lane seeds are placeholders: perfect_draw reseeds every lane per draw.
  std::array<dist::LaneSampler::Lane, kL> gap_lanes;
  std::array<dist::LaneSampler::Lane, kL> service_lanes;
  for (std::size_t l = 0; l < kL; ++l) {
    gap_lanes[l] = {&gap_dist, 0};
    service_lanes[l] = {config.service.get(), 0};
  }
  const std::size_t gap_rows = (ci + kL - 1) / kL;
  const std::size_t service_rows = (ci * n + kL - 1) / kL;
  PerfectWalk w{dist::LaneSampler(gap_lanes),
                dist::LaneSampler(service_lanes),
                gap_rows,
                service_rows,
                std::vector<double>(gap_rows * kL),
                std::vector<double>(service_rows * kL),
                std::vector<double>(n),
                std::vector<double>(n),
                std::vector<double>(n)};

  PerfectSampleResult result;
  result.lambda = params.lambda;
  result.mean_k = params.mean_k;
  result.theta = params.theta;
  result.responses.reserve(static_cast<std::size_t>(config.draws));
  result.batch_task_stats.resize(kPerfectBatches);
  PerfectMetrics& metrics = PerfectMetrics::get();
  const auto join = static_cast<std::ptrdiff_t>(
      config.early_k == 0 ? n : static_cast<std::size_t>(config.early_k));
  std::uint64_t total_steps = 0;
  for (std::uint64_t d = 0; d < config.draws; ++d) {
    const std::uint64_t steps = perfect_draw(
        w, util::Rng::split_seed(config.seed, d), config, params.theta);
    total_steps += steps;
    result.max_depth = std::max(result.max_depth, steps);
    metrics.depth.record(static_cast<double>(steps));
    stats::Welford& batch =
        result.batch_task_stats[perfect_batch(d, config.draws)];
    for (const double t : w.sojourns) {
      result.task_stats.add(t);
      batch.add(t);
    }
    std::nth_element(w.sojourns.begin(), w.sojourns.begin() + (join - 1),
                     w.sojourns.end());
    result.responses.push_back(w.sojourns[static_cast<std::size_t>(join - 1)]);
  }
  result.total_tasks = config.draws * n;
  result.mean_depth =
      static_cast<double>(total_steps) / static_cast<double>(config.draws);
  metrics.draws.add(config.draws);
  metrics.steps.add(total_steps);
  return result;
}

}  // namespace

// Level entry points (external linkage; the dispatch TU declares these).
HomogeneousResult run_homogeneous(const HomogeneousConfig& config) {
  return homogeneous_impl(config);
}
HeterogeneousResult run_heterogeneous(const HeterogeneousConfig& config) {
  return heterogeneous_impl(config);
}
SubsetResult run_subset(const SubsetConfig& config) {
  return subset_impl(config);
}
PipelineResult run_pipeline(const PipelineConfig& config) {
  return pipeline_impl(config);
}
PerfectSampleResult run_perfect(const PerfectSamplerConfig& config) {
  return perfect_impl(config);
}

}  // namespace FORKTAIL_VE_NS
}  // namespace forktail::fjsim
