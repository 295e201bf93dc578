// Stress and failure-injection tests: randomized schedules, extreme loads,
// and degenerate inputs that production use will eventually hit.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "core/forktail.hpp"
#include "dist/basic.hpp"
#include "dist/factory.hpp"
#include "fjsim/homogeneous.hpp"
#include "sim/engine.hpp"
#include "stats/percentile.hpp"
#include "support/heap_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace forktail {
namespace {

TEST(EngineStress, RandomizedScheduleProcessesInOrder) {
  struct Run {
    sim::Engine engine;
    util::Rng rng{123};
    std::vector<double> fired;
  } run;
  run.fired.reserve(20000);
  // Seed events at random times; each fired event occasionally schedules
  // more events in its own future.
  run.engine.bind(&run, +[](void* ctx, sim::Engine& engine, const sim::Event&) {
    auto& r = *static_cast<Run*>(ctx);
    r.fired.push_back(engine.now());
    if (r.fired.size() < 20000 && r.rng.bernoulli(0.4)) {
      engine.schedule_event_in(r.rng.exponential(1.0), sim::EventKind::kTimer,
                               sim::EventPayload{});
      engine.schedule_event_in(r.rng.exponential(2.0), sim::EventKind::kTimer,
                               sim::EventPayload{});
    }
  });
  for (int i = 0; i < 2000; ++i) {
    run.engine.schedule_event(run.rng.uniform(0.0, 100.0),
                              sim::EventKind::kTimer, sim::EventPayload{});
  }
  run.engine.run();
  const auto& fired = run.fired;
  ASSERT_GE(fired.size(), 2000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i], fired[i - 1]) << "out-of-order at " << i;
  }
  EXPECT_EQ(run.engine.events_processed(), fired.size());
}

/// The hedging-race script, written once against a per-engine port with
/// `primary_at(time)`, `hedge_at(time) -> id` and an `engine` member.
struct HedgeScript {
  util::Rng rng{77};
  std::vector<double> fired;
  std::vector<std::uint64_t> hedges;

  template <typename Port>
  void seed(Port& port) {
    for (int i = 0; i < 64; ++i) port.primary_at(rng.uniform(0.0, 10.0));
  }

  template <typename Port>
  void primary(Port& port) {
    fired.push_back(port.engine.now());
    // Retract the most recent still-pending hedge (it may already have
    // been consumed -- cancel is harmlessly false then).
    if (!hedges.empty()) {
      port.engine.cancel(hedges.back());
      hedges.pop_back();
    }
    if (fired.size() < 50000) {
      const double dt = rng.exponential(1.0);
      port.primary_at(port.engine.now() + dt);
      // The hedge twin launches strictly later than the primary, so the
      // primary always wins the race and the hedge is pure tombstone
      // load: a steady ~50% cancel rate.
      hedges.push_back(port.hedge_at(port.engine.now() + dt + 1000.0));
    }
  }
};

/// Calendar engine port: primaries are kArrival events, hedges no-op
/// cancellable kTimer events, both fired through the bound dispatcher.
struct CalendarHedgePort {
  sim::Engine engine;
  HedgeScript script;

  CalendarHedgePort() { engine.bind(this, &CalendarHedgePort::dispatch); }
  CalendarHedgePort(const CalendarHedgePort&) = delete;
  CalendarHedgePort& operator=(const CalendarHedgePort&) = delete;

  static void dispatch(void* ctx, sim::Engine&, const sim::Event& ev) {
    auto* self = static_cast<CalendarHedgePort*>(ctx);
    if (ev.kind == sim::EventKind::kArrival) self->script.primary(*self);
  }
  void primary_at(double time) {
    engine.schedule_event(time, sim::EventKind::kArrival, sim::EventPayload{});
  }
  std::uint64_t hedge_at(double time) {
    return engine.schedule_cancellable_event(time, sim::EventKind::kTimer,
                                             sim::EventPayload{});
  }
};

/// The frozen heap engine's port: its own closure-per-event API.
struct HeapHedgePort {
  sim::HeapEngine engine;
  HedgeScript script;

  void primary_at(double time) {
    engine.schedule(time, [this] { script.primary(*this); });
  }
  std::uint64_t hedge_at(double time) {
    return engine.schedule_cancellable(time, [] {});
  }
};

TEST(EngineStress, CancelHeavyHedgingRaceCompactsAndStaysOrdered) {
  // ~50% of scheduled events are hedging-style cancellables that get
  // retracted before firing, interleaved with the run (not batched up
  // front): every fired "primary" cancels its pending "hedge" twin and
  // schedules the next pair.  Tombstones must be compacted (bounded
  // memory), firing stays time-ordered, and the calendar engine's final
  // state matches the frozen binary-heap reference bit for bit.
  CalendarHedgePort calendar;
  calendar.script.fired.reserve(60000);
  calendar.script.seed(calendar);
  calendar.engine.run();
  const auto& fired = calendar.script.fired;
  const std::uint64_t cancelled = calendar.engine.events_cancelled();
  ASSERT_GE(fired.size(), 50000u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_GE(fired[i], fired[i - 1]) << "out-of-order at " << i;
  }
  // Roughly half of all scheduled events were cancelled hedges...
  EXPECT_GT(cancelled, fired.size() / 3);
  // ...and the tombstone sweep actually ran, keeping the calendar bounded.
  EXPECT_GE(calendar.engine.compactions(), 1u);
  // Every primary firing was processed; at most a stray end-of-run hedge
  // (never cancelled because no primary fired after it) adds no-op events.
  EXPECT_GE(calendar.engine.events_processed(), fired.size());

  // The frozen heap engine replays the identical script: bit-identical
  // firing schedule and matching cancel/process accounting.
  HeapHedgePort heap;
  heap.script.fired.reserve(60000);
  heap.script.seed(heap);
  heap.engine.run();
  const auto& fired_heap = heap.script.fired;
  ASSERT_EQ(fired.size(), fired_heap.size());
  for (std::size_t i = 0; i < fired.size(); ++i) {
    ASSERT_EQ(fired[i], fired_heap[i]) << "diverged at " << i;
  }
  EXPECT_EQ(cancelled, heap.engine.events_cancelled());
  EXPECT_EQ(calendar.engine.events_processed(), heap.engine.events_processed());
  EXPECT_EQ(calendar.engine.now(), heap.engine.now());
}

TEST(SimStress, NearSaturationStaysFiniteAndOrdered) {
  // rho = 0.99: the run is legal (stable), just extremely slow to mix;
  // every computed response must be finite and positive.
  fjsim::HomogeneousConfig cfg;
  cfg.num_nodes = 4;
  cfg.service = dist::make_named("Empirical");
  cfg.load = 0.99;
  cfg.num_requests = 20000;
  cfg.warmup_fraction = 0.2;
  cfg.seed = 3;
  const auto r = fjsim::run_homogeneous(cfg);
  for (double x : r.responses) {
    ASSERT_TRUE(std::isfinite(x));
    ASSERT_GT(x, 0.0);
  }
  // Sanity: at rho = 0.99 the mean response dwarfs the service time.
  EXPECT_GT(r.task_stats.mean(), 10.0 * cfg.service->mean());
}

TEST(PredictorStress, RandomMomentFuzzRoundTrips) {
  // Fuzz the (mean, variance, k, p) space: the quantile must always invert
  // the CDF, stay positive and finite.
  util::Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const double mean = std::exp(rng.uniform(-6.0, 8.0));
    const double cv = std::exp(rng.uniform(-2.0, 1.5));
    const double variance = (cv * mean) * (cv * mean);
    const double k = std::exp(rng.uniform(0.0, 8.0));
    const double p = rng.uniform(1.0, 99.99);
    const double x = core::homogeneous_quantile({mean, variance}, k, p);
    ASSERT_TRUE(std::isfinite(x)) << mean << " " << variance << " " << k;
    ASSERT_GT(x, 0.0);
    ASSERT_NEAR(core::homogeneous_cdf({mean, variance}, k, x), p / 100.0, 1e-6);
  }
}

TEST(PredictorStress, InhomogeneousFuzzWithWildNodeMixtures) {
  util::Rng rng(78);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 40));
    std::vector<core::TaskStats> nodes;
    for (int i = 0; i < n; ++i) {
      const double mean = std::exp(rng.uniform(-3.0, 6.0));
      const double cv = std::exp(rng.uniform(-1.5, 1.2));
      nodes.push_back({mean, (cv * mean) * (cv * mean)});
    }
    const double x = core::inhomogeneous_quantile(nodes, 99.0);
    ASSERT_TRUE(std::isfinite(x));
    ASSERT_NEAR(core::inhomogeneous_cdf(nodes, x), 0.99, 1e-6);
    // Dominance: at least the largest single-node p99.
    double max_single = 0.0;
    for (const auto& s : nodes) {
      max_single =
          std::max(max_single, core::homogeneous_quantile(s, 1.0, 99.0));
    }
    ASSERT_GE(x, max_single - 1e-9 * max_single);
  }
}

TEST(OnlineStress, InterleavedRecordingAcrossManyNodes) {
  // Hammer the online predictor with interleaved, bursty per-node streams
  // and assert it never produces a non-finite prediction once warmed up.
  core::OnlineTailPredictor online(16, 50.0, 20);
  util::Rng rng(79);
  std::vector<double> clocks(16, 0.0);
  for (int step = 0; step < 50000; ++step) {
    const auto node = static_cast<std::size_t>(rng.uniform_int(16ULL));
    clocks[node] += rng.exponential(0.3);
    online.record(node, clocks[node], rng.exponential(5.0) + 0.1);
    if (step > 2000 && step % 1000 == 0) {
      const auto p = online.predict_homogeneous(99.0);
      ASSERT_TRUE(p.has_value());
      ASSERT_TRUE(std::isfinite(*p));
    }
  }
}

TEST(MixtureStress, ManyGroupQuantileStable) {
  // 256 binned groups spanning nearly the whole cluster.
  const auto mixture = core::TaskCountMixture::uniform_int(1, 100000);
  const double x = core::mixture_quantile({5.0, 50.0}, mixture, 99.9);
  ASSERT_TRUE(std::isfinite(x));
  EXPECT_GT(x, core::homogeneous_quantile({5.0, 50.0}, 1.0, 99.9));
  EXPECT_LT(x, core::homogeneous_quantile({5.0, 50.0}, 100000.0, 99.9));
}

TEST(StressThreadPool, DestructionWhileTasksThrowNeverHangs) {
  // A worker that throws during pool teardown must neither terminate the
  // process nor leave the destructor joining forever.  50 rounds of
  // destroy-with-throwing-backlog; the test passes by finishing.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    {
      util::ThreadPool pool(4);
      for (int i = 0; i < 64; ++i) {
        pool.submit([&ran, i] {
          ++ran;
          if (i % 3 == 0) throw std::runtime_error("task failure");
        });
      }
      // No wait_idle(): the destructor itself must drain the queue (some
      // tasks still pending, several already thrown) and join cleanly.
    }
    EXPECT_EQ(ran.load(), 64) << "round " << round;
  }
}

TEST(StressThreadPool, WaitIdleRethrowsFirstErrorAndPoolStaysUsable) {
  util::ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait_idle(), std::runtime_error);
    // The pool must remain fully usable after a rethrow.
    std::atomic<int> ok{0};
    for (int i = 0; i < 8; ++i) pool.submit([&ok] { ++ok; });
    pool.wait_idle();
    EXPECT_EQ(ok.load(), 8);
  }
}

TEST(StressThreadPool, ConcurrentSubmittersAndThrowersDrainExactly) {
  // Several threads hammer submit() while half the tasks throw; every task
  // must run exactly once and wait_idle must always return.
  util::ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  constexpr int kPerThread = 500;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&pool, &ran] {
      for (int i = 0; i < kPerThread; ++i) {
        pool.submit([&ran, i] {
          ++ran;
          if (i % 2 == 0) throw std::runtime_error("x");
        });
      }
    });
  }
  for (auto& s : submitters) s.join();
  try {
    pool.wait_idle();
  } catch (const std::runtime_error&) {
    // expected: at least one captured failure
  }
  EXPECT_EQ(ran.load(), 4 * kPerThread);
}

}  // namespace
}  // namespace forktail
