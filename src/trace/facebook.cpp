#include "trace/facebook.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "dist/heavy.hpp"
#include "dist/transforms.hpp"

namespace forktail::trace {

const std::array<JobSizeBin, 9>& facebook_job_size_bins() {
  // Job-size histogram at Facebook from the delay-scheduling study [43]:
  // most jobs are small, a heavy tail reaches thousands of map tasks.
  static const std::array<JobSizeBin, 9> bins = {{
      {1, 1, 0.38},
      {2, 2, 0.16},
      {3, 20, 0.14},
      {21, 60, 0.08},
      {61, 150, 0.06},
      {151, 300, 0.06},
      {301, 500, 0.04},
      {501, 1500, 0.04},
      {1501, 3000, 0.04},
  }};
  return bins;
}

FacebookWorkload::FacebookWorkload(Params params) : params_(params) {
  if (!(params_.min_mean_ms > 0.0 && params_.max_mean_ms >= params_.min_mean_ms)) {
    throw std::invalid_argument("FacebookWorkload: bad mean task time range");
  }
  if (!(params_.target_fraction >= 0.0 && params_.target_fraction <= 1.0)) {
    throw std::invalid_argument("FacebookWorkload: bad target fraction");
  }
  if (params_.target_tasks < 1) {
    throw std::invalid_argument("FacebookWorkload: target_tasks must be >= 1");
  }
  if (!(params_.target_mean_ms > 0.0)) {
    throw std::invalid_argument("FacebookWorkload: target mean must be > 0");
  }
}

std::uint32_t FacebookWorkload::sample_background_tasks(util::Rng& rng) const {
  const auto& bins = facebook_job_size_bins();
  double u = rng.uniform();
  for (const auto& bin : bins) {
    if (u < bin.probability) {
      auto k = static_cast<std::uint32_t>(
          rng.uniform_int(static_cast<std::int64_t>(bin.lo),
                          static_cast<std::int64_t>(bin.hi)));
      if (params_.max_tasks > 0 && k > params_.max_tasks) k = params_.max_tasks;
      return k;
    }
    u -= bin.probability;
  }
  // Rounding leftovers land in the last bin.
  auto k = facebook_job_size_bins().back().hi;
  if (params_.max_tasks > 0 && k > params_.max_tasks) k = params_.max_tasks;
  return k;
}

double FacebookWorkload::sample_background_mean(util::Rng& rng) const {
  const double lo = std::log(params_.min_mean_ms);
  const double hi = std::log(params_.max_mean_ms);
  return std::exp(rng.uniform(lo, hi));
}

fjsim::JobSpec FacebookWorkload::sample_job(util::Rng& rng) const {
  fjsim::JobSpec job;
  if (rng.bernoulli(params_.target_fraction)) {
    job.target = true;
    job.tasks = params_.target_tasks;
    job.mean_task_time = params_.target_mean_ms;
  } else {
    job.target = false;
    job.tasks = sample_background_tasks(rng);
    job.mean_task_time = sample_background_mean(rng);
  }
  return job;
}

fjsim::JobGenerator FacebookWorkload::generator() const {
  return [self = *this](util::Rng& rng) { return self.sample_job(rng); };
}

double FacebookWorkload::estimate_mean_work(double service_floor) const {
  const auto task_mean = [service_floor](double m) {
    return dist::TruncatedNormal(m, 2.0 * m, service_floor).moment(1);
  };
  // E[min(K, c)] with K uniform on each bin's [lo, hi].
  const double cap = params_.max_tasks > 0
                         ? static_cast<double>(params_.max_tasks)
                         : std::numeric_limits<double>::infinity();
  double tasks = 0.0;
  for (const auto& bin : facebook_job_size_bins()) {
    const double lo = bin.lo;
    const double hi = bin.hi;
    double mean;
    if (cap >= hi) {
      mean = 0.5 * (lo + hi);
    } else if (cap < lo) {
      mean = cap;
    } else {  // lo..cap count themselves, cap+1..hi count as cap
      mean = (0.5 * (lo + cap) * (cap - lo + 1.0) + (hi - cap) * cap) /
             (hi - lo + 1.0);
    }
    tasks += bin.probability * mean;
  }
  // E_m[mu(m)] over the log-uniform background mean: mu(e^s) is smooth
  // and close to linear in e^s, so the Gauss-Legendre rule converges
  // geometrically; four 32-point panels are far past convergence over the
  // paper's 1-1000 ms range.
  const double log_lo = std::log(params_.min_mean_ms);
  const double log_hi = std::log(params_.max_mean_ms);
  const double background_task_mean =
      log_hi > log_lo
          ? dist::integrate_gl32(
                [&](double s) { return task_mean(std::exp(s)); }, log_lo,
                log_hi, 4) /
                (log_hi - log_lo)
          : task_mean(params_.min_mean_ms);
  const double f = params_.target_fraction;
  return f * static_cast<double>(params_.target_tasks) *
             task_mean(params_.target_mean_ms) +
         (1.0 - f) * tasks * background_task_mean;
}

double FacebookWorkload::mean_background_tasks() const {
  double m = 0.0;
  for (const auto& bin : facebook_job_size_bins()) {
    m += bin.probability * 0.5 * static_cast<double>(bin.lo + bin.hi);
  }
  return m;
}

}  // namespace forktail::trace
