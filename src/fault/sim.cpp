#include "fault/sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "fault/timeline.hpp"
#include "fjsim/replay.hpp"
#include "obs/metrics.hpp"
#include "stats/roots.hpp"

namespace forktail::fault {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rng::split stream-index regions for the fault paths.  The plain replay
/// owns the low indices (0 = arrivals, 100+n = node service); the fault
/// streams live in disjoint high regions so no node count can collide.
constexpr std::uint64_t kPrimaryFaultStream = 1ULL << 32;
constexpr std::uint64_t kHedgeFaultStream = 2ULL << 32;
constexpr std::uint64_t kRetryServiceStream = 3ULL << 32;
constexpr std::uint64_t kHedgeServiceStream = 4ULL << 32;

/// One primary-lane attempt, recorded so a hedge win at time w can rewind
/// the lane: replaying the records decides where the server actually ends
/// up free once everything after w evaporates.
struct AttemptRec {
  double start = 0.0;      ///< service start (max of dispatch, lane free)
  double nf_before = 0.0;  ///< lane next-free before this attempt
  double nf_after = 0.0;   ///< lane next-free after it ran / was cancelled
  bool crashed = false;
};

/// Lane next-free after cancelling a task's remaining primary work at `w`.
/// Walk the attempts in order: an attempt that had not started by w
/// evaporates (lane stays at its nf_before); a crash holds the server down
/// regardless of cancellation; a running attempt is killed at w; an
/// attempt that already finished (or timed out) before w keeps its effect.
double rewind_lane(const std::vector<AttemptRec>& attempts, double w) {
  double nf = attempts.front().nf_before;
  for (const AttemptRec& a : attempts) {
    if (a.crashed) {
      nf = a.nf_after;
      continue;
    }
    if (a.start >= w) break;
    nf = std::min(a.nf_after, w);
  }
  return nf;
}

}  // namespace

double dist_quantile(const dist::Distribution& d, double q) {
  if (!(q > 0.0)) return 0.0;
  // Bracket by doubling from the mean, then bisect.  cdf is monotone.
  double hi = std::max(d.mean(), 1e-12);
  while (d.cdf(hi) < q) hi *= 2.0;
  return stats::bisect([&](double x) { return d.cdf(x) < q; }, 0.0, hi, 0.0,
                       1e-12)
      .mid();
}

MitigatedResult run_mitigated_homogeneous(const fjsim::HomogeneousConfig& config,
                                          const FaultPlan& plan) {
  fjsim::validate(config);
  validate(plan, "faults");
  if (config.policy != fjsim::Policy::kSingle || config.replicas != 1) {
    throw fjsim::ConfigError(
        "faults", "fault injection requires single-server nodes "
                  "(policy \"single\", replicas = 1)");
  }
  const MitigationPolicy& mit = plan.mitigation;
  if (mit.early_k > 0 &&
      mit.early_k > static_cast<int>(config.num_nodes)) {
    throw fjsim::ConfigError("faults.mitigation.early_k",
                             "must be <= the node count");
  }

  util::Rng master(config.seed);
  const double lambda = config.load / config.service->mean();
  const std::uint64_t warmup =
      fjsim::warmup_requests(config.warmup_fraction, config.num_requests);
  const std::uint64_t total = warmup + config.num_requests;

  // Shared arrival epochs: identical to the fault-free replay by
  // construction (same stream, same draws).
  const std::vector<double> arrivals =
      fjsim::poisson_arrivals(master.split(0), lambda, total);

  MitigatedResult result;
  result.lambda = lambda;
  result.total_tasks = total * config.num_nodes;
  if (mit.hedge_quantile > 0.0) {
    result.hedge_delay = dist_quantile(*config.service, mit.hedge_quantile);
  }

  const double timeout = mit.timeout > 0.0 ? mit.timeout : kInf;
  const bool hedging = mit.hedge_quantile > 0.0;

  // Per-request aggregation: max across nodes, or the early_k-th smallest
  // completion when the policy allows partial (k-of-n) return.  +inf
  // completions (lost tasks) propagate so a dead task drops the request
  // unless early return covers it.
  std::vector<double> completion_max(total, 0.0);
  std::optional<fjsim::OrderStatArena> arena;
  if (mit.early_k > 0) arena.emplace(total, mit.early_k);

  FaultCounters& counters = result.counters;
  std::vector<AttemptRec> attempts;
  attempts.reserve(static_cast<std::size_t>(mit.max_retries) + 1);

  // Serial node-major replay.  Lanes are per-node single FIFO servers;
  // retries stay on the primary lane (and are served with the owning
  // task's priority), hedges run on a dedicated per-node hedge lane.
  for (std::size_t n = 0; n < config.num_nodes; ++n) {
    util::Rng service_rng = master.split(100 + n);
    util::Rng retry_rng = master.split(kRetryServiceStream + n);
    util::Rng hedge_service_rng = master.split(kHedgeServiceStream + n);
    FaultTimeline primary_tl(plan.inject, master.split(kPrimaryFaultStream + n));
    FaultTimeline hedge_tl(plan.inject, master.split(kHedgeFaultStream + n));

    double nf = 0.0;    // primary lane next-free
    double nf_h = 0.0;  // hedge lane next-free

    for (std::uint64_t j = 0; j < total; ++j) {
      const double arrival = arrivals[j];
      const bool measured = j >= warmup;

      // --- primary lane: attempt 0 plus up to max_retries retries ------
      attempts.clear();
      double primary_completion = kInf;
      double first_cand = kInf;
      double dispatch = arrival;
      for (int r = 0;; ++r) {
        const double start = std::max(dispatch, nf);
        const FaultEffect eff = primary_tl.effect_at(start);
        double demand = config.service->sample(r == 0 ? service_rng : retry_rng);
        AttemptRec rec;
        rec.start = start;
        rec.nf_before = nf;
        double cand;
        if (eff.kind == FaultKind::kCrash) {
          rec.crashed = true;
          cand = kInf;
          rec.nf_after = std::max(nf, eff.window_end);
        } else {
          if (eff.kind == FaultKind::kSlowdown) demand *= eff.factor;
          if (eff.kind == FaultKind::kBlip) demand += eff.stall;
          cand = start + demand;
          rec.nf_after = cand;
        }
        if (r == 0) first_cand = cand;
        const double deadline = dispatch + timeout;
        if (cand > deadline) {
          // Timed out (or crashed): cancel the attempt.  A cancelled
          // attempt frees its server at the deadline; one that never
          // started by then leaves the lane untouched; a crash holds the
          // server down regardless.
          if (std::isfinite(deadline)) ++counters.timeouts;
          if (!rec.crashed) {
            rec.nf_after = rec.start >= deadline ? rec.nf_before
                                                 : std::min(cand, deadline);
          }
          attempts.push_back(rec);
          nf = rec.nf_after;
          if (std::isfinite(deadline) && r < mit.max_retries) {
            ++counters.retries;
            dispatch = deadline + mit.backoff_base *
                                      std::pow(mit.backoff_mult, r);
            continue;
          }
          break;  // attempts exhausted (or an unmitigated crash): lost
        }
        attempts.push_back(rec);
        nf = rec.nf_after;
        primary_completion = cand;
        break;
      }
      if (measured && std::isfinite(first_cand)) {
        result.attempt_stats.add(first_cand - arrival);
      }

      // --- hedge lane: one duplicate, cancel-on-first-complete ---------
      double completion = primary_completion;
      if (hedging) {
        const double launch = arrival + result.hedge_delay;
        if (primary_completion > launch) {
          ++counters.hedges_launched;
          const double start_h = std::max(launch, nf_h);
          const FaultEffect eff_h = hedge_tl.effect_at(start_h);
          double demand_h = config.service->sample(hedge_service_rng);
          const bool crashed_h = eff_h.kind == FaultKind::kCrash;
          double cand_h = kInf;
          if (!crashed_h) {
            if (eff_h.kind == FaultKind::kSlowdown) demand_h *= eff_h.factor;
            if (eff_h.kind == FaultKind::kBlip) demand_h += eff_h.stall;
            cand_h = start_h + demand_h;
            if (measured) result.hedge_stats.add(cand_h - launch);
          }
          if (cand_h < primary_completion) {
            // Hedge wins: it holds its lane to completion; the primary
            // lane's remaining work for this task is cancelled at the win.
            ++counters.hedges_won;
            completion = cand_h;
            nf_h = cand_h;
            nf = rewind_lane(attempts, cand_h);
          } else if (crashed_h) {
            nf_h = std::max(nf_h, eff_h.window_end);
          } else if (start_h < primary_completion) {
            // Primary won while the hedge was running: kill it there.
            nf_h = std::min(cand_h, primary_completion);
          }
          // else: the hedge never started before the primary finished --
          // it evaporates from the hedge queue, lane untouched.
        }
      }

      if (measured && std::isfinite(completion)) {
        result.task_stats.add(completion - arrival);
      }
      if (arena) {
        arena->insert(j, completion);
      } else if (completion > completion_max[j]) {
        completion_max[j] = completion;
      }
    }

    counters.crashes += primary_tl.crashes() + hedge_tl.crashes();
    counters.slowdowns += primary_tl.slowdowns() + hedge_tl.slowdowns();
    counters.blips += primary_tl.blips() + hedge_tl.blips();
  }

  result.responses.reserve(config.num_requests);
  for (std::uint64_t j = warmup; j < total; ++j) {
    const double completion = arena ? arena->kth(j) : completion_max[j];
    if (std::isfinite(completion)) {
      result.responses.push_back(completion - arrivals[j]);
    } else {
      ++counters.dropped_requests;
    }
  }

  auto& reg = obs::Registry::global();
  reg.counter("fault.injected.crashes").add(counters.crashes);
  reg.counter("fault.injected.slowdowns").add(counters.slowdowns);
  reg.counter("fault.injected.blips").add(counters.blips);
  reg.counter("fault.hedges.launched").add(counters.hedges_launched);
  reg.counter("fault.hedges.won").add(counters.hedges_won);
  reg.counter("fault.retries").add(counters.retries);
  reg.counter("fault.timeouts").add(counters.timeouts);
  reg.counter("fault.dropped_requests").add(counters.dropped_requests);
  return result;
}

}  // namespace forktail::fault
