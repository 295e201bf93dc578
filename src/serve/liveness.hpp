// Per-agent liveness tracking for the serve daemon.
//
// Each fork node is fed by one agent.  Agents die (crash, partition,
// kill -9) and their last samples -- often the congested ones that made
// them die -- would otherwise sit in the prediction window forever.  The
// liveness table watches per-node arrival times on the RECEIVER's steady
// clock and, past a timeout, reports the node stale so the owner can
// advance() its window in the agent's own time base and predictions can
// degrade with a stated reason instead of lying.
//
// Two clock domains, deliberately:
//   * agent time (timestamp_ns from the wire) orders samples within a
//     node's window;
//   * receiver steady time decides liveness and staleness, because a dead
//     agent by definition stops advancing its own clock.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace forktail::serve {

class LivenessTable {
 public:
  explicit LivenessTable(std::size_t nodes);

  std::size_t nodes() const noexcept { return entries_.size(); }

  /// A batch for `node`, stamped `agent_ns`, arrived at receiver steady
  /// time `now_s`.  Re-arrival of a stale node revives it.
  void observe(std::size_t node, std::uint64_t agent_ns, double now_s);

  /// Mark nodes idle for more than `timeout_s` stale.  Returns the node
  /// indices that JUST transitioned live -> stale this sweep (each exactly
  /// once per staleness episode), so the caller can advance their windows.
  std::vector<std::size_t> sweep(double now_s, double timeout_s);

  bool seen(std::size_t node) const { return entries_[node].seen; }
  bool stale(std::size_t node) const { return entries_[node].stale; }

  std::size_t seen_count() const noexcept { return seen_count_; }
  std::size_t stale_count() const noexcept { return stale_count_; }
  std::size_t live_count() const noexcept { return seen_count_ - stale_count_; }

  /// Worst data age (ms at receiver time `now_s`) among LIVE nodes; 0 when
  /// no node is live.  Stale nodes are excluded -- their absence is
  /// reported through the stale count / degradation reason, not by letting
  /// one dead agent pin staleness at infinity.
  double staleness_ms(double now_s) const {
    return staleness_ms_since(oldest_live_seen_s(), now_s);
  }

  /// Receiver time of the least recent arrival among LIVE nodes; +inf when
  /// no node is live.  staleness_ms() is a function of this alone, so a
  /// published copy of it answers staleness at any later query time.
  double oldest_live_seen_s() const;

  /// Data age in ms at `now_s` of a fleet whose least recent live arrival
  /// was at `oldest_live_seen_s` (0 when that is +inf, i.e. nothing live).
  static double staleness_ms_since(double oldest_live_seen_s, double now_s) {
    return std::max(0.0, (now_s - oldest_live_seen_s) * 1000.0);
  }

  /// The agent-clock "now" estimate for `node`: its last reported
  /// timestamp plus the receiver-side idle time.  This is the eviction
  /// horizon for advancing a dead node's window (assumes comparable clock
  /// rates, which is all we need -- the window only has to roll forward).
  double estimated_agent_now_s(std::size_t node, double now_s) const;

  std::uint64_t last_agent_ns(std::size_t node) const {
    return entries_[node].last_agent_ns;
  }

 private:
  struct Entry {
    std::uint64_t last_agent_ns = 0;
    double last_seen_s = 0.0;  ///< receiver steady clock
    bool seen = false;
    bool stale = false;
  };
  std::vector<Entry> entries_;
  std::size_t seen_count_ = 0;
  std::size_t stale_count_ = 0;
};

}  // namespace forktail::serve
