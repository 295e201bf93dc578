#include "util/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace forktail::util {

namespace {
// Pool telemetry (docs/observability.md): task counts, submit-to-start
// queue wait, and aggregate busy time.  Utilization over a run is
// busy_seconds / (wall * pool size).
struct PoolMetrics {
  obs::Counter& tasks = obs::Registry::global().counter("threadpool.tasks");
  obs::Counter& exceptions =
      obs::Registry::global().counter("threadpool.task_exceptions");
  obs::Gauge& busy_seconds =
      obs::Registry::global().gauge("threadpool.busy_seconds");
  obs::Histogram& queue_wait =
      obs::Registry::global().histogram("threadpool.queue_wait_seconds");
  static PoolMetrics& get() {
    static PoolMetrics m;
    return m;
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  Job job{std::move(task), std::chrono::steady_clock::now()};
  {
    std::lock_guard lock(mutex_);
    queue_.push_back(std::move(job));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    PoolMetrics::get().queue_wait.record(
        std::chrono::duration<double>(start - job.enqueued).count());
    std::exception_ptr error;
    try {
      job.fn();
    } catch (...) {
      error = std::current_exception();
    }
    const auto end = std::chrono::steady_clock::now();
    PoolMetrics& m = PoolMetrics::get();
    m.busy_seconds.add(std::chrono::duration<double>(end - start).count());
    m.tasks.add(1);
    if (error) m.exceptions.add(1);
    {
      std::lock_guard lock(mutex_);
      if (error && !first_error_) first_error_ = error;
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = std::max<std::size_t>(1, pool.size());
  // Chunk so each worker gets a handful of chunks for load balance.
  const std::size_t chunks = std::min(n, workers * 4);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    if (lo >= hi) break;
    pool.submit([lo, hi, &fn] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    });
  }
  pool.wait_idle();
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace forktail::util
