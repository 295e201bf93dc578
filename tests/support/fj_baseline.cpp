// The pre-calendar-queue fork-join driver, kept verbatim (modulo the
// HeapEngine spelling and the record_responses switch) as the determinism
// reference and bench baseline for run_fj_simulation.  The determinism
// suite pins the typed-event driver bit-identical to this one; do not
// optimise this file.
#include "support/fj_baseline.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "fjsim/redundant_node.hpp"
#include "support/heap_engine.hpp"

namespace forktail::sim {

namespace {

void validate_baseline(const FjConfig& c) {
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

/// The original callback ForkNode, specialised to HeapEngine.  Identical
/// logic to sim::ForkNode's legacy path, frozen alongside the engine it
/// runs on.
class BaselineForkNode {
 public:
  using TaskCallback = std::function<void(double arrival, double completion)>;

  BaselineForkNode(HeapEngine& engine, dist::DistPtr service, int replicas,
                   DispatchPolicy policy, double redundant_delay,
                   util::Rng rng)
      : engine_(engine),
        service_(std::move(service)),
        policy_(policy),
        rng_(rng) {
    if (!service_) {
      throw std::invalid_argument("ForkNode: null service distribution");
    }
    if (replicas < 1) {
      throw std::invalid_argument("ForkNode: replicas must be >= 1");
    }
    if (policy == DispatchPolicy::kSingle && replicas != 1) {
      throw std::invalid_argument(
          "ForkNode: kSingle requires exactly one replica");
    }
    if (policy == DispatchPolicy::kRedundant) {
      if (!(redundant_delay > 0.0)) {
        throw std::invalid_argument(
            "ForkNode: kRedundant requires a positive delay");
      }
      redundant_ = std::make_unique<fjsim::RedundantNode>(
          service_.get(), replicas, redundant_delay, rng_);
    }
    servers_.resize(static_cast<std::size_t>(replicas));
  }

  BaselineForkNode(const BaselineForkNode&) = delete;
  BaselineForkNode& operator=(const BaselineForkNode&) = delete;

  void submit(TaskCallback on_complete) {
    const double arrival = engine_.now();
    if (policy_ == DispatchPolicy::kRedundant) {
      const std::uint64_t id = next_task_id_++;
      pending_callbacks_.emplace(id, std::move(on_complete));
      redundant_->submit_task(
          arrival, id, [this](std::uint64_t tid, double arr, double done) {
            resolve(tid, arr, done);
          });
      return;
    }
    const double service = service_->sample(rng_);
    const std::size_t server = next_server();
    const double done = servers_[server].submit(arrival, service);
    engine_.schedule(done, [arrival, done, cb = std::move(on_complete)] {
      cb(arrival, done);
    });
  }

  void flush() {
    if (policy_ != DispatchPolicy::kRedundant) return;
    redundant_->flush([this](std::uint64_t tid, double arr, double done) {
      resolve(tid, arr, done);
    });
  }

  std::uint64_t redundant_issues() const noexcept {
    return redundant_ ? redundant_->redundant_issues() : 0;
  }

 private:
  HeapEngine& engine_;
  dist::DistPtr service_;
  std::vector<FifoServer> servers_;
  DispatchPolicy policy_;
  util::Rng rng_;
  std::size_t rr_next_ = 0;
  std::unique_ptr<fjsim::RedundantNode> redundant_;
  std::unordered_map<std::uint64_t, TaskCallback> pending_callbacks_;
  std::uint64_t next_task_id_ = 0;

  std::size_t next_server() noexcept {
    const std::size_t s = rr_next_;
    rr_next_ = (rr_next_ + 1) % servers_.size();
    return s;
  }

  void resolve(std::uint64_t id, double arrival, double completion) {
    const auto it = pending_callbacks_.find(id);
    if (it == pending_callbacks_.end()) {
      throw std::logic_error("BaselineForkNode: completion for unknown task");
    }
    TaskCallback cb = std::move(it->second);
    pending_callbacks_.erase(it);
    cb(arrival, completion);
  }
};

struct RequestState {
  double arrival = 0.0;
  double max_completion = 0.0;
  std::uint32_t remaining = 0;
};

}  // namespace

FjResult run_fj_simulation_baseline(const FjConfig& config) {
  validate_baseline(config);
  HeapEngine engine;
  util::Rng master(config.seed);
  util::Rng arrival_rng = master.split(0);
  util::Rng pick_rng = master.split(1);
  util::Rng k_rng = master.split(2);

  std::vector<std::unique_ptr<BaselineForkNode>> nodes;
  nodes.reserve(config.num_nodes);
  for (std::size_t i = 0; i < config.num_nodes; ++i) {
    nodes.push_back(std::make_unique<BaselineForkNode>(
        engine, config.service, config.replicas, config.policy,
        config.redundant_delay, master.split(100 + i)));
  }

  const auto warmup = static_cast<std::uint64_t>(
      config.warmup_fraction / (1.0 - config.warmup_fraction) *
      static_cast<double>(config.num_requests));
  const std::uint64_t total_requests = warmup + config.num_requests;

  FjResult result;
  if (config.record_responses) {
    result.request_responses.reserve(config.num_requests);
  }
  result.node_task_stats.resize(config.num_nodes);

  std::vector<RequestState> requests(total_requests);
  // Scratch for subset sampling (partial Fisher-Yates).
  std::vector<std::uint32_t> node_index(config.num_nodes);
  for (std::size_t i = 0; i < config.num_nodes; ++i) {
    node_index[i] = static_cast<std::uint32_t>(i);
  }

  const double mean_interarrival = 1.0 / config.lambda;
  std::uint64_t issued = 0;

  // One shared arrival handler reschedules itself until all requests are in.
  std::function<void()> arrive = [&] {
    const std::uint64_t id = issued++;
    RequestState& req = requests[id];
    req.arrival = engine.now();

    std::size_t k = config.num_nodes;
    if (config.k_mode == TaskCountMode::kFixed) {
      k = static_cast<std::size_t>(config.k_fixed);
    } else if (config.k_mode == TaskCountMode::kUniform) {
      k = static_cast<std::size_t>(k_rng.uniform_int(config.k_lo, config.k_hi));
    }
    req.remaining = static_cast<std::uint32_t>(k);

    const bool measured = id >= warmup;
    auto touch = [&, id, measured](std::size_t node_id) {
      nodes[node_id]->submit([&, id, measured, node_id](double arrival,
                                                        double completion) {
        const double response = completion - arrival;
        if (measured) {
          result.pooled_task_stats.add(response);
          result.node_task_stats[node_id].add(response);
        }
        RequestState& r = requests[id];
        r.max_completion = std::max(r.max_completion, completion);
        if (--r.remaining == 0 && measured) {
          if (config.record_responses) {
            result.request_responses.push_back(r.max_completion - r.arrival);
          }
          ++result.measured_requests;
        }
      });
      ++result.total_tasks;
    };

    if (k == config.num_nodes) {
      for (std::size_t n = 0; n < config.num_nodes; ++n) touch(n);
    } else {
      // Partial Fisher-Yates: the first k entries become the chosen subset.
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    pick_rng.uniform_int(config.num_nodes - i));
        std::swap(node_index[i], node_index[j]);
        touch(node_index[i]);
      }
    }

    if (issued < total_requests) {
      engine.schedule_in(arrival_rng.exponential(mean_interarrival), arrive);
    }
  };

  engine.schedule(arrival_rng.exponential(mean_interarrival), arrive);
  engine.run();
  for (const auto& node : nodes) node->flush();

  for (const auto& node : nodes) {
    result.redundant_issues += node->redundant_issues();
  }
  result.sim_end_time = engine.now();
  result.events_processed = engine.events_processed();
  return result;
}

}  // namespace forktail::sim
