#include "trace/facebook.hpp"

#include <cmath>
#include <limits>
#include <memory>
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

fjsim::JobGenerator make_replay_generator(std::vector<JobRecord> records,
                                          std::uint32_t max_tasks) {
  if (records.empty()) {
    throw std::invalid_argument("make_replay_generator: empty trace");
  }
  // The index is shared mutable state inside the closure; the consolidated
  // simulator drives the generator from a single thread.
  auto cursor = std::make_shared<std::size_t>(0);
  return [records = std::move(records), max_tasks,
          cursor](util::Rng&) -> fjsim::JobSpec {
    const JobRecord& rec = records[*cursor];
    *cursor = (*cursor + 1) % records.size();
    fjsim::JobSpec job;
    job.target = false;
    job.tasks = rec.num_tasks;
    if (max_tasks > 0 && job.tasks > max_tasks) job.tasks = max_tasks;
    job.mean_task_time = rec.mean_task_time;
    return job;
  };
}

double trace_mean_work(const std::vector<JobRecord>& records,
                       double service_floor, std::uint32_t max_tasks) {
  if (records.empty()) {
    throw std::invalid_argument("trace_mean_work: empty trace");
  }
  double total = 0.0;
  for (const JobRecord& rec : records) {
    std::uint32_t tasks = rec.num_tasks;
    if (max_tasks > 0 && tasks > max_tasks) tasks = max_tasks;
    if (rec.task_times.size() == rec.num_tasks && rec.num_tasks > 0) {
      // Exact: scale the recorded total work by any clamping ratio.
      double sum = 0.0;
      for (double s : rec.task_times) sum += s;
      total += sum * static_cast<double>(tasks) /
               static_cast<double>(rec.num_tasks);
    } else {
      // Mean-based: apply the truncation inflation of Normal(m, (2m)^2)
      // clipped below at the floor (the replay resamples task times the
      // same way).
      const dist::TruncatedNormal t(rec.mean_task_time,
                                    2.0 * rec.mean_task_time, service_floor);
      total += static_cast<double>(tasks) * t.mean();
    }
  }
  return total / static_cast<double>(records.size());
}

std::vector<JobRecord> synthesize_trace(const FacebookWorkload& workload,
                                        std::uint64_t count, double lambda,
                                        double service_floor, std::uint64_t seed) {
  if (!(lambda > 0.0)) throw std::invalid_argument("synthesize_trace: lambda <= 0");
  util::Rng rng(seed);
  std::vector<JobRecord> records;
  records.reserve(count);
  double t = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    t += rng.exponential(1.0 / lambda);
    const fjsim::JobSpec job = workload.sample_job(rng);
    JobRecord rec;
    rec.arrival_time = t;
    rec.num_tasks = job.tasks;
    rec.mean_task_time = job.mean_task_time;
    rec.task_times.reserve(job.tasks);
    for (std::uint32_t k = 0; k < job.tasks; ++k) {
      double s;
      do {
        s = rng.normal(job.mean_task_time, 2.0 * job.mean_task_time);
      } while (s < service_floor);
      rec.task_times.push_back(s);
    }
    records.push_back(std::move(rec));
  }
  return records;
}

}  // namespace forktail::trace
