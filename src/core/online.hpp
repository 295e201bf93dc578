// Online tail-latency prediction from streaming task-response samples.
//
// Implements the measurement loop Section 3 describes: every fork node
// keeps a moving window (e.g. 20 s) of task response times; the predictor
// re-fits the GE model from the windowed mean/variance and answers quantile
// queries in microseconds -- the paper's contrast with the ~33-minute
// direct-measurement alternative.
//
// Clock discipline: sample timestamps come from the agents that measured
// them, and real agent clocks jump backwards (NTP steps, VM migrations,
// agent restarts).  A backwards timestamp fed straight into the window
// would corrupt eviction, so record_batch() -- the one clock-discipline
// path; record() is its one-sample case -- clamps small backwards jumps (up
// to `skew_tolerance` seconds) onto the node's high-water mark and rejects
// larger ones, and any non-finite timestamp, with a typed outcome -- it
// never throws on bad clocks and never lets them corrupt the window.  The
// high-water mark is the window's own clock (stats::WindowedMoments::now).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/predictor.hpp"
#include "stats/welford.hpp"
#include "stats/windowed.hpp"

namespace forktail::core {

/// What record() did with a sample (see class comment on clock discipline).
enum class RecordOutcome : std::uint8_t {
  kAccepted,  ///< timestamp was monotone; recorded as given
  kClamped,   ///< small backwards jump; recorded at the node's high-water mark
  kRejected,  ///< non-finite, or backwards beyond the skew tolerance; dropped
};

class OnlineTailPredictor {
 public:
  /// `num_nodes` fork nodes, each with a sliding time window of
  /// `window_seconds`; predictions require at least `min_samples` samples
  /// in every participating node's window.  `skew_tolerance` is the largest
  /// backwards clock jump (seconds) record() absorbs by clamping; beyond it
  /// the sample is rejected (0 = only exactly-equal timestamps tolerated).
  OnlineTailPredictor(std::size_t num_nodes, double window_seconds,
                      std::size_t min_samples = 30,
                      double skew_tolerance = 0.0);

  std::size_t num_nodes() const noexcept { return windows_.size(); }
  std::size_t min_samples() const noexcept { return min_samples_; }

  /// Record a completed task at `node`: response time `response` observed
  /// at wall-clock time `now` (seconds).  Backwards `now` values are
  /// clamped within the skew tolerance and rejected beyond it, and
  /// non-finite ones are rejected -- see RecordOutcome; the window is never
  /// corrupted and nothing throws for bad clocks (out-of-range `node`
  /// still throws std::out_of_range).
  RecordOutcome record(std::size_t node, double now, double response);

  /// Record every response at the one time `now` (an agent's datagram):
  /// the same outcome, window and counters as record() of each response in
  /// turn, stopping at the first rejection, up to the rounding of the
  /// moments.  The clock check runs once: if the first response would be
  /// clamped, every one is (online.clock_clamped counts each), and a
  /// rejected batch counts once in online.clock_rejected.  An empty batch
  /// changes nothing and is kAccepted.  record() is a one-response batch,
  /// so its arithmetic is exactly one Welford update.
  RecordOutcome record_batch(std::size_t node, double now,
                             std::span<const double> responses);

  /// Evict samples older than the window without recording (call before
  /// reading stats from a node that may have gone idle -- otherwise its
  /// window freezes with its last, possibly congested, samples).  Advances
  /// the node's high-water mark, so it also bounds future backwards jumps.
  /// A non-finite `now` is ignored.
  void advance(std::size_t node, double now);

  /// The node's timestamp high-water mark (latest record/advance time);
  /// nullopt before the first sample.  Liveness sweeps use this to evict
  /// in the agent's own time base.
  std::optional<double> last_timestamp(std::size_t node) const;

  /// Per-node current statistics; nullopt when the window is under-filled.
  std::optional<TaskStats> node_stats(std::size_t node) const;

  /// Service-level moments pooled over the *filled* windows only -- the
  /// shard-friendly accessor: callers merge PooledStats across shards and
  /// decide for themselves whether `filled_nodes < total_nodes` means
  /// "degrade" (serve) or "decline" (the strict predict_* methods below).
  /// The windows combine through stats::MomentSketch::merge.
  struct PooledStats {
    double count = 0.0;     ///< samples across the filled windows
    double mean = 0.0;
    double variance = 0.0;
    std::size_t filled_nodes = 0;  ///< windows meeting min_samples
    std::size_t total_nodes = 0;

    stats::MomentSketch moments() const noexcept {
      return stats::MomentSketch::of(static_cast<std::uint64_t>(count), mean,
                                     variance);
    }
  };
  PooledStats pooled_stats() const;

  /// Homogeneous prediction pooling all nodes (coarse-grained,
  /// per-service view; Eq. 6).  k defaults to the node count.
  std::optional<double> predict_homogeneous(double p, double k = 0.0) const;

  /// Inhomogeneous prediction over all nodes (Eq. 4): per-node fits.
  std::optional<double> predict_inhomogeneous(double p) const;

  /// Inhomogeneous prediction for a request touching `nodes` (Eq. 5): the
  /// fine-grained per-request expression.
  std::optional<double> predict_subset(std::span<const std::size_t> nodes,
                                       double p) const;

  /// Mixture prediction over pooled stats (Eq. 9).
  std::optional<double> predict_mixture(const TaskCountMixture& mixture,
                                        double p) const;

 private:
  /// Pooled (mean, variance) for the homogeneous-style fits: nullopt unless
  /// every window is filled and the pooled variance is positive.
  std::optional<TaskStats> pooled_fit_input() const;

  std::vector<stats::WindowedMoments> windows_;
  std::size_t min_samples_;
  double skew_tolerance_;
};

}  // namespace forktail::core
