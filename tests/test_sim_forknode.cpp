#include "sim/forknode.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "dist/basic.hpp"

namespace forktail::sim {
namespace {

TEST(FifoServer, LindleyRecursion) {
  FifoServer s;
  EXPECT_DOUBLE_EQ(s.submit(0.0, 2.0), 2.0);   // idle start
  EXPECT_DOUBLE_EQ(s.submit(1.0, 2.0), 4.0);   // queues behind first
  EXPECT_DOUBLE_EQ(s.submit(10.0, 1.0), 11.0); // idle again
  s.reset();
  EXPECT_DOUBLE_EQ(s.next_free(), 0.0);
}

/// Recording dispatcher for one ForkNode: a kArrival event whose payload
/// index is `n` submits n tasks at that instant.  FIFO completions come
/// back as kTaskComplete events (decoded with ForkNode::completion_of),
/// redundant ones through the node's completion sink; both are recorded in
/// firing order.
struct NodeDriver {
  struct Done {
    std::uint64_t cookie;
    double arrival;
    double completion;
  };

  ForkNode& node;
  std::vector<Done> done;
  std::uint64_t next_cookie = 0;

  NodeDriver(Engine& engine, ForkNode& n) : node(n) {
    engine.bind(this, &NodeDriver::dispatch);
    node.bind_completions(this, &NodeDriver::on_completion);
  }

  static void submit_at(Engine& engine, double time, std::uint64_t tasks = 1) {
    EventPayload p;
    p.arrival.index = tasks;
    engine.schedule_event(time, EventKind::kArrival, p);
  }

  static void dispatch(void* ctx, Engine&, const Event& ev) {
    auto* self = static_cast<NodeDriver*>(ctx);
    if (ev.kind == EventKind::kArrival) {
      for (std::uint64_t i = 0; i < ev.payload.arrival.index; ++i) {
        self->node.submit_task(self->next_cookie++);
      }
      return;
    }
    ASSERT_EQ(ev.kind, EventKind::kTaskComplete);
    const ForkNode::Completion c = ForkNode::completion_of(ev);
    self->done.push_back({c.cookie, c.arrival, ev.time});
  }

  static void on_completion(void* ctx, std::uint64_t cookie, double arrival,
                            double completion) {
    static_cast<NodeDriver*>(ctx)->done.push_back(
        {cookie, arrival, completion});
  }
};

TEST(ForkNode, SingleServerCompletesInOrder) {
  Engine e;
  auto service = std::make_shared<dist::Deterministic>(1.0);
  ForkNode node(e, service, 1, DispatchPolicy::kSingle, 10.0, util::Rng(1));
  NodeDriver driver(e, node);
  NodeDriver::submit_at(e, 0.0);
  NodeDriver::submit_at(e, 0.5);  // queues: starts at 1.0, done 2.0
  NodeDriver::submit_at(e, 5.0);  // idle: done 6.0
  e.run();
  const auto& completions = driver.done;
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0].completion, 1.0);
  EXPECT_DOUBLE_EQ(completions[1].completion, 2.0);
  EXPECT_DOUBLE_EQ(completions[2].completion, 6.0);
  // The event payload round-trips the cookie and the arrival time.
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(completions[i].cookie, i);
  EXPECT_DOUBLE_EQ(completions[1].arrival, 0.5);
  EXPECT_DOUBLE_EQ(completions[2].arrival, 5.0);
}

TEST(ForkNode, RoundRobinSpreadsAcrossReplicas) {
  Engine e;
  auto service = std::make_shared<dist::Deterministic>(2.0);
  ForkNode node(e, service, 3, DispatchPolicy::kRoundRobin, 10.0, util::Rng(2));
  NodeDriver driver(e, node);
  NodeDriver::submit_at(e, 0.0, 3);
  e.run();
  // Three tasks, three replicas: all finish at 2.0 (no queueing).
  ASSERT_EQ(driver.done.size(), 3u);
  for (const auto& d : driver.done) EXPECT_DOUBLE_EQ(d.completion, 2.0);
}

TEST(ForkNode, RedundantIssueDoesNotDelayTheStraggler) {
  Engine e;
  // Deterministic 30 time-unit task, delay 5: the replica fires at t = 5 on
  // the idle second server and would finish at 35, so the primary wins at
  // 30 and the replica is killed there.
  auto service = std::make_shared<dist::Deterministic>(30.0);
  ForkNode node(e, service, 2, DispatchPolicy::kRedundant, 5.0, util::Rng(3));
  NodeDriver driver(e, node);
  NodeDriver::submit_at(e, 0.0);
  e.run();
  node.flush();
  ASSERT_EQ(driver.done.size(), 1u);
  EXPECT_DOUBLE_EQ(driver.done[0].completion, 30.0);
  EXPECT_EQ(node.redundant_issues(), 1u);
}

TEST(ForkNode, RedundantQueuedReplicasAreDropped) {
  Engine e;
  auto service = std::make_shared<dist::Deterministic>(10.0);
  ForkNode node(e, service, 2, DispatchPolicy::kRedundant, 3.0, util::Rng(4));
  NodeDriver driver(e, node);
  // Task 0 (t=0) runs on server 0 until 10; its replica (t=3) queues on
  // server 1 behind task 1's primary and is dropped when task 0 finishes.
  // Symmetrically for task 1 (t=1, done 11).
  NodeDriver::submit_at(e, 0.0);
  NodeDriver::submit_at(e, 1.0);
  e.run();
  node.flush();
  const auto& completions = driver.done;
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0].completion, 10.0);
  EXPECT_DOUBLE_EQ(completions[1].completion, 11.0);
  EXPECT_EQ(node.redundant_issues(), 2u);
}

TEST(ForkNode, RedundantKillFreesTheStragglersServer) {
  Engine e;
  // Hyperexponential-free deterministic check of kill-on-win through the
  // event-driven wrapper: task 0 is a straggler (S=30) whose replica (S=30
  // as well) starts at t=5 on the idle server 1 and loses; but a SECOND
  // task arriving at t=40 on server 0 must start immediately (server idle
  // again after 30), completing at 70.
  auto service = std::make_shared<dist::Deterministic>(30.0);
  ForkNode node(e, service, 2, DispatchPolicy::kRedundant, 5.0, util::Rng(5));
  NodeDriver driver(e, node);
  NodeDriver::submit_at(e, 0.0);
  NodeDriver::submit_at(e, 40.0);
  e.run();
  node.flush();
  const auto& completions = driver.done;
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_DOUBLE_EQ(completions[0].completion, 30.0);
  EXPECT_DOUBLE_EQ(completions[1].completion, 70.0);
}

TEST(ForkNode, ValidatesConfiguration) {
  Engine e;
  auto service = std::make_shared<dist::Deterministic>(1.0);
  EXPECT_THROW(ForkNode(e, nullptr, 1, DispatchPolicy::kSingle, 1.0, util::Rng(5)),
               std::invalid_argument);
  EXPECT_THROW(
      ForkNode(e, service, 0, DispatchPolicy::kSingle, 1.0, util::Rng(5)),
      std::invalid_argument);
  EXPECT_THROW(
      ForkNode(e, service, 2, DispatchPolicy::kSingle, 1.0, util::Rng(5)),
      std::invalid_argument);
  EXPECT_THROW(
      ForkNode(e, service, 2, DispatchPolicy::kRedundant, 0.0, util::Rng(5)),
      std::invalid_argument);
}

}  // namespace
}  // namespace forktail::sim
