// Fork-node models for the event-driven simulator.
//
// A fork node is a black box containing one or more replicated FIFO
// servers (Fig. 1 of the paper).  Three dispatch policies from Section 4.1:
//   - single server (r = 1)
//   - round-robin over r replicas
//   - round-robin with redundant task issue and kill-on-win (speculative
//     execution): if a copy has been executing for D time units without
//     completing, a single replica is issued to the next server; the first
//     completion wins and the losing copy is cancelled immediately.  This
//     policy is delegated to fjsim::RedundantNode, the shared queued-server
//     implementation (cancellation breaks plain Lindley accounting).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dist/distribution.hpp"
#include "fjsim/redundant_node.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace forktail::sim {

enum class DispatchPolicy : std::uint8_t {
  kSingle,      ///< r must be 1
  kRoundRobin,  ///< RR over r replicas
  kRedundant,   ///< RR + one redundant issue after `redundant_delay`
};

/// One FIFO work-conserving server: tracks the time it next becomes free.
/// Submissions must arrive in non-decreasing time order (guaranteed when
/// driven through the event engine).
class FifoServer {
 public:
  /// Returns the completion time of a task arriving at `arrival` with the
  /// given service demand.
  double submit(double arrival, double service) noexcept {
    const double start = arrival > next_free_ ? arrival : next_free_;
    next_free_ = start + service;
    return next_free_;
  }

  double next_free() const noexcept { return next_free_; }
  void reset() noexcept { next_free_ = 0.0; }

 private:
  double next_free_ = 0.0;
};

class ForkNode {
 public:
  /// Completion sink: `fn(ctx, cookie, arrival, completion)` fires exactly
  /// once per submit_task(cookie).  A raw function pointer: one indirect
  /// call, no type erasure, no allocation.
  using CompletionFn = void (*)(void* ctx, std::uint64_t cookie,
                                double arrival, double completion);

  /// A FIFO-policy completion as carried by its kTaskComplete event.
  struct Completion {
    std::uint64_t cookie;
    double arrival;
  };

  ForkNode(Engine& engine, dist::DistPtr service, int replicas,
           DispatchPolicy policy, double redundant_delay, util::Rng rng);

  /// Bind the completion sink (required before submit_task).  FIFO-policy
  /// completions are delivered through a kTaskComplete engine event -- the
  /// driver's dispatcher decodes it with completion_of() -- while
  /// redundant-policy completions call `fn` directly from a later
  /// submit_task() or flush() (the completion *values* are exact; only the
  /// calling point differs, which no consumer depends on).
  void bind_completions(void* ctx, CompletionFn fn) noexcept {
    completion_ctx_ = ctx;
    completion_fn_ = fn;
  }

  /// Submit a task arriving now (engine time), tagged with an opaque driver
  /// cookie.  The service demand is drawn internally.
  void submit_task(std::uint64_t cookie);

  /// Decode a kTaskComplete event scheduled by submit_task(); the
  /// completion time is the event's own timestamp.
  static Completion completion_of(const Event& ev) noexcept {
    Completion c{ev.payload.raw.a, 0.0};
    std::memcpy(&c.arrival, &ev.payload.raw.b, sizeof(double));
    return c;
  }

  /// Resolve any still-pending redundant completions (call after the event
  /// loop drains).  No-op for the FIFO policies.
  void flush();

  int replicas() const noexcept { return static_cast<int>(servers_.size()); }
  DispatchPolicy policy() const noexcept { return policy_; }

  /// Count of redundant replicas actually issued (for load accounting).
  std::uint64_t redundant_issues() const noexcept;

 private:
  Engine& engine_;
  dist::DistPtr service_;
  std::vector<FifoServer> servers_;
  DispatchPolicy policy_;
  util::Rng rng_;
  std::size_t rr_next_ = 0;
  /// Monomorphic fast path: when the service distribution is the (by far
  /// most common) exponential, draw it inline instead of through the
  /// vtable.  Negative when the general path must be used.  Draws are
  /// identical either way (Exponential::sample == rng.exponential(mean)).
  double exp_mean_ = -1.0;

  double draw_service() noexcept {
    return exp_mean_ > 0.0 ? rng_.exponential(exp_mean_)
                           : service_->sample(rng_);
  }

  // Completion sink (bind_completions).
  void* completion_ctx_ = nullptr;
  CompletionFn completion_fn_ = nullptr;

  // Redundant policy state: the shared queued-server node plus the pending
  // cookies keyed by task id.
  std::unique_ptr<fjsim::RedundantNode> redundant_;
  std::unordered_map<std::uint64_t, std::uint64_t> pending_cookies_;
  std::uint64_t next_task_id_ = 0;

  std::size_t next_server() noexcept {
    // Wrap with a compare, not a modulo: an integer division per task is
    // measurable at cluster scale.
    const std::size_t s = rr_next_;
    rr_next_ = s + 1 == servers_.size() ? 0 : s + 1;
    return s;
  }

  void resolve(std::uint64_t id, double arrival, double completion);
};

}  // namespace forktail::sim
