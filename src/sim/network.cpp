#include "sim/network.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace forktail::sim {

namespace {

double mean_tasks_per_request(const FjConfig& c) {
  switch (c.k_mode) {
    case TaskCountMode::kAllNodes:
      return static_cast<double>(c.num_nodes);
    case TaskCountMode::kFixed:
      return static_cast<double>(c.k_fixed);
    case TaskCountMode::kUniform:
      return 0.5 * static_cast<double>(c.k_lo + c.k_hi);
  }
  return 0.0;
}

void validate(const FjConfig& c) {
  if (c.num_nodes == 0) throw std::invalid_argument("FjConfig: num_nodes == 0");
  if (!c.service) throw std::invalid_argument("FjConfig: null service");
  if (!(c.lambda > 0.0)) throw std::invalid_argument("FjConfig: lambda <= 0");
  if (c.num_requests == 0) throw std::invalid_argument("FjConfig: no requests");
  if (c.k_mode == TaskCountMode::kFixed &&
      (c.k_fixed < 1 || static_cast<std::size_t>(c.k_fixed) > c.num_nodes)) {
    throw std::invalid_argument("FjConfig: k_fixed out of range");
  }
  if (c.k_mode == TaskCountMode::kUniform &&
      (c.k_lo < 1 || c.k_hi < c.k_lo ||
       static_cast<std::size_t>(c.k_hi) > c.num_nodes)) {
    throw std::invalid_argument("FjConfig: uniform k range out of range");
  }
  if (!(c.warmup_fraction >= 0.0 && c.warmup_fraction < 1.0)) {
    throw std::invalid_argument("FjConfig: warmup_fraction must be in [0,1)");
  }
}

/// The whole fork-join system as one typed-event driver.  State lives in
/// flat arrays; the engine dispatches kArrival / kTaskComplete events into
/// the switch below through one bound function pointer.
///
/// In-flight requests live in a *slot arena* with a free list, so memory
/// scales with concurrency, not with the total request count (the legacy
/// driver kept an O(total_requests) state array).  A slot is freed exactly
/// when its last task joins, and every task resolves exactly once, so no
/// completion can observe a recycled slot.
///
/// Determinism: the driver consumes RNG draws and engine sequence numbers
/// in exactly the order of the legacy callback driver
/// (run_fj_simulation_baseline) -- per arrival: optional k draw, then per
/// task a subset pick and a service draw, then the next-arrival draw -- so
/// both produce bit-identical results on every config.
class FjDriver {
 public:
  FjDriver(const FjConfig& config, Engine& engine)
      : config_(config),
        engine_(engine),
        master_(config.seed),
        arrival_rng_(master_.split(0)),
        pick_rng_(master_.split(1)),
        k_rng_(master_.split(2)),
        mean_interarrival_(1.0 / config.lambda) {
    nodes_.reserve(config.num_nodes);
    for (std::size_t i = 0; i < config.num_nodes; ++i) {
      nodes_.push_back(std::make_unique<ForkNode>(
          engine, config.service, config.replicas, config.policy,
          config.redundant_delay, master_.split(100 + i)));
      nodes_.back()->bind_completions(this, &FjDriver::on_node_completion);
    }
    warmup_ = static_cast<std::uint64_t>(
        config.warmup_fraction / (1.0 - config.warmup_fraction) *
        static_cast<double>(config.num_requests));
    total_requests_ = warmup_ + config.num_requests;
    node_index_.resize(config.num_nodes);
    for (std::size_t i = 0; i < config.num_nodes; ++i) {
      node_index_[i] = static_cast<std::uint32_t>(i);
    }
    result_.node_task_stats.resize(config.num_nodes);
    if (config.record_responses) {
      result_.request_responses.reserve(config.num_requests);
    }
    engine.bind(this, &FjDriver::dispatch);
  }

  FjResult run() {
    engine_.schedule_event(arrival_rng_.exponential(mean_interarrival_),
                           EventKind::kArrival, EventPayload{});
    engine_.run();
    for (const auto& node : nodes_) node->flush();

    for (const auto& node : nodes_) {
      result_.redundant_issues += node->redundant_issues();
    }
    result_.sim_end_time = engine_.now();
    result_.events_processed = engine_.events_processed();
    return std::move(result_);
  }

 private:
  struct RequestSlot {
    double arrival = 0.0;
    double max_completion = 0.0;
    std::uint32_t remaining = 0;
    bool measured = false;
  };

  static void dispatch(void* ctx, Engine&, const Event& ev) {
    auto* self = static_cast<FjDriver*>(ctx);
    switch (ev.kind) {
      case EventKind::kArrival:
        self->on_arrival();
        break;
      case EventKind::kTaskComplete: {
        const ForkNode::Completion c = ForkNode::completion_of(ev);
        self->on_task_complete(c.cookie, c.arrival, ev.time);
        break;
      }
      default:
        throw std::logic_error("FjDriver: unexpected event kind");
    }
  }

  /// Redundant-policy completions arrive here straight from the node (no
  /// engine event); FIFO completions arrive via kTaskComplete above.  Both
  /// funnel into the same join bookkeeping.
  static void on_node_completion(void* ctx, std::uint64_t cookie,
                                 double arrival, double completion) {
    static_cast<FjDriver*>(ctx)->on_task_complete(cookie, arrival, completion);
  }

  static std::uint64_t make_cookie(std::uint32_t slot,
                                   std::uint32_t node) noexcept {
    return (static_cast<std::uint64_t>(slot) << 32) | node;
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t s = free_slots_.back();
      free_slots_.pop_back();
      return s;
    }
    slots_.emplace_back();
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }

  void on_arrival() {
    const std::uint64_t id = issued_++;
    const std::uint32_t slot = acquire_slot();
    RequestSlot& req = slots_[slot];
    req.arrival = engine_.now();
    req.max_completion = 0.0;
    req.measured = id >= warmup_;

    std::size_t k = config_.num_nodes;
    if (config_.k_mode == TaskCountMode::kFixed) {
      k = static_cast<std::size_t>(config_.k_fixed);
    } else if (config_.k_mode == TaskCountMode::kUniform) {
      k = static_cast<std::size_t>(
          k_rng_.uniform_int(config_.k_lo, config_.k_hi));
    }
    req.remaining = static_cast<std::uint32_t>(k);

    if (k == config_.num_nodes) {
      for (std::size_t n = 0; n < config_.num_nodes; ++n) {
        nodes_[n]->submit_task(
            make_cookie(slot, static_cast<std::uint32_t>(n)));
      }
    } else {
      // Partial Fisher-Yates: the first k entries become the chosen subset.
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    pick_rng_.uniform_int(config_.num_nodes - i));
        std::swap(node_index_[i], node_index_[j]);
        nodes_[node_index_[i]]->submit_task(
            make_cookie(slot, node_index_[i]));
      }
    }
    result_.total_tasks += k;

    if (issued_ < total_requests_) {
      engine_.schedule_event_in(arrival_rng_.exponential(mean_interarrival_),
                                EventKind::kArrival, EventPayload{});
    }
  }

  void on_task_complete(std::uint64_t cookie, double arrival,
                        double completion) {
    const auto slot = static_cast<std::uint32_t>(cookie >> 32);
    const auto node = static_cast<std::uint32_t>(cookie);
    RequestSlot& req = slots_[slot];
    if (req.measured) {
      const double response = completion - arrival;
      result_.pooled_task_stats.add(response);
      result_.node_task_stats[node].add(response);
    }
    if (completion > req.max_completion) req.max_completion = completion;
    if (--req.remaining == 0) {
      if (req.measured) {
        const double response = req.max_completion - req.arrival;
        if (config_.record_responses) {
          result_.request_responses.push_back(response);
        }
        result_.response_histogram.record(response);
        ++result_.measured_requests;
      }
      free_slots_.push_back(slot);
    }
  }

  const FjConfig& config_;
  Engine& engine_;
  util::Rng master_;
  util::Rng arrival_rng_;
  util::Rng pick_rng_;
  util::Rng k_rng_;
  std::vector<std::unique_ptr<ForkNode>> nodes_;
  FjResult result_;
  std::vector<RequestSlot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> node_index_;  ///< Fisher-Yates scratch
  double mean_interarrival_;
  std::uint64_t warmup_ = 0;
  std::uint64_t total_requests_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace

double nominal_load(const FjConfig& config) {
  return config.lambda * mean_tasks_per_request(config) /
         static_cast<double>(config.num_nodes) * config.service->mean() /
         static_cast<double>(config.replicas);
}

double lambda_for_nominal_load(const FjConfig& config, double rho) {
  if (!(rho > 0.0 && rho < 1.0)) {
    throw std::invalid_argument("lambda_for_nominal_load: rho must be in (0,1)");
  }
  return rho * static_cast<double>(config.num_nodes) *
         static_cast<double>(config.replicas) /
         (mean_tasks_per_request(config) * config.service->mean());
}

FjResult run_fj_simulation(const FjConfig& config) {
  validate(config);
  Engine engine;
  FjDriver driver(config, engine);
  return driver.run();
}

}  // namespace forktail::sim
