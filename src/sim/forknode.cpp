#include "sim/forknode.hpp"

#include "dist/basic.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace forktail::sim {

ForkNode::ForkNode(Engine& engine, dist::DistPtr service, int replicas,
                   DispatchPolicy policy, double redundant_delay, util::Rng rng)
    : engine_(engine),
      service_(std::move(service)),
      policy_(policy),
      rng_(rng) {
  if (!service_) throw std::invalid_argument("ForkNode: null service distribution");
  if (replicas < 1) throw std::invalid_argument("ForkNode: replicas must be >= 1");
  if (policy == DispatchPolicy::kSingle && replicas != 1) {
    throw std::invalid_argument("ForkNode: kSingle requires exactly one replica");
  }
  if (policy == DispatchPolicy::kRedundant) {
    if (!(redundant_delay > 0.0)) {
      throw std::invalid_argument("ForkNode: kRedundant requires a positive delay");
    }
    redundant_ = std::make_unique<fjsim::RedundantNode>(
        service_.get(), replicas, redundant_delay, rng_);
  }
  servers_.resize(static_cast<std::size_t>(replicas));
  if (const auto* exp = dynamic_cast<const dist::Exponential*>(service_.get())) {
    exp_mean_ = exp->moment(1);
  }
}

void ForkNode::resolve(std::uint64_t id, double arrival, double completion) {
  const auto it = pending_cookies_.find(id);
  if (it == pending_cookies_.end()) {
    throw std::logic_error("ForkNode: completion for unknown task");
  }
  const std::uint64_t cookie = it->second;
  pending_cookies_.erase(it);
  completion_fn_(completion_ctx_, cookie, arrival, completion);
}

void ForkNode::submit_task(std::uint64_t cookie) {
  const double arrival = engine_.now();
  if (policy_ == DispatchPolicy::kRedundant) {
    const std::uint64_t id = next_task_id_++;
    pending_cookies_.emplace(id, cookie);
    redundant_->submit_task(
        arrival, id, [this](std::uint64_t tid, double arr, double done) {
          resolve(tid, arr, done);
        });
    return;
  }
  const double service = draw_service();
  const std::size_t server = next_server();
  const double done = servers_[server].submit(arrival, service);
  // The payload carries the cookie plus the arrival time's bit pattern
  // (decoded by completion_of); completion time is the event's own
  // timestamp.  No allocation, no capture -- this is the whole fast path.
  EventPayload payload;
  payload.raw.a = cookie;
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::memcpy(&payload.raw.b, &arrival, sizeof(double));
  engine_.schedule_event(done, EventKind::kTaskComplete, payload);
}

void ForkNode::flush() {
  if (policy_ != DispatchPolicy::kRedundant) return;
  redundant_->flush([this](std::uint64_t tid, double arr, double done) {
    resolve(tid, arr, done);
  });
}

std::uint64_t ForkNode::redundant_issues() const noexcept {
  return redundant_ ? redundant_->redundant_issues() : 0;
}

}  // namespace forktail::sim
