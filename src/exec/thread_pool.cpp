#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"

namespace rahtm::exec {

namespace {

/// Set while a thread is executing tasks of some pool's region; reentrant
/// parallelFor calls detect it and run inline instead of deadlocking on the
/// (busy) workers.
thread_local bool tlInParallelRegion = false;

}  // namespace

/// One parallel region: tasks are claimed by atomically incrementing
/// `next`; `finished` counts completed tasks. `active` (guarded by the pool
/// mutex) counts workers still inside the region — the caller only returns
/// once it reaches zero, so the stack-allocated Job can never be touched by
/// a laggard worker afterwards.
struct ThreadPool::Job {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t n = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> finished{0};
  std::atomic<std::int64_t> busyUs{0};  ///< task time, for the gauge
  bool timed = false;
  int active = 0;            ///< workers inside the region (under the mutex)
  std::exception_ptr error;  ///< first task exception (under the mutex)
};

ThreadPool::ThreadPool(int threads) : threadCount_(resolveThreads(threads)) {
  workers_.reserve(static_cast<std::size_t>(threadCount_ - 1));
  for (int i = 1; i < threadCount_; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::inParallelRegion() { return tlInParallelRegion; }

int ThreadPool::resolveThreads(int requested) {
  RAHTM_REQUIRE(requested <= kMaxThreads,
                "ThreadPool: " + std::to_string(requested) +
                    " threads requested, more than kMaxThreads");
  if (requested == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxThreads));
  }
  return std::max(1, requested);
}

void ThreadPool::workerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_.wait(lk, [this] {
        return stop_ || (job_ != nullptr &&
                         job_->next.load(std::memory_order_relaxed) < job_->n);
      });
      if (stop_) return;
      job = job_;
      ++job->active;
    }
    runTasks(*job);
    {
      std::lock_guard<std::mutex> lk(mu_);
      --job->active;
    }
    done_.notify_all();
  }
}

void ThreadPool::runTasks(Job& job) {
  const bool wasInRegion = tlInParallelRegion;
  tlInParallelRegion = true;
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) break;
    obs::FlightRecorder::instance().record(
        obs::FrEvent::PoolTaskBegin, static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(job.n));
    const auto t0 = job.timed ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.timed) {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      job.busyUs.fetch_add(us, std::memory_order_relaxed);
    }
    job.finished.fetch_add(1, std::memory_order_release);
    obs::Heartbeats::instance().beat(obs::Pulse::PoolTasks);
    obs::FlightRecorder::instance().record(
        obs::FrEvent::PoolTaskEnd, static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(job.n));
  }
  tlInParallelRegion = wasInRegion;
}

void ThreadPool::parallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1 || tlInParallelRegion) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  Job job;
  job.fn = &fn;
  job.n = n;
  job.timed = obs::metrics() != nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job_ != nullptr) {
      // Another thread is driving a region on this pool; don't queue behind
      // it — inline execution preserves both progress and determinism.
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    job_ = &job;
  }
  const auto t0 = job.timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
  wake_.notify_all();
  runTasks(job);
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [&job] {
      return job.finished.load(std::memory_order_acquire) == job.n &&
             job.active == 0;
    });
    job_ = nullptr;
  }
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    const auto wallUs = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    reg->counter("exec.pool.regions").add(1);
    reg->counter("exec.pool.tasks").add(static_cast<std::int64_t>(n));
    if (wallUs > 0) {
      reg->gauge("exec.pool.utilization")
          .set(static_cast<double>(job.busyUs.load(std::memory_order_relaxed)) /
               (static_cast<double>(wallUs) * threadCount_));
    }
  }
  if (job.error) std::rethrow_exception(job.error);
}

bool ThreadPool::tryGang(std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  if (n == 0) return true;
  if (tlInParallelRegion || n > static_cast<std::size_t>(threadCount_)) {
    return false;
  }
  if (n == 1) {
    // A one-thread gang needs no workers — run it here (still outside any
    // region, so the task may itself use parallelFor).
    fn(0);
    return true;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job_ != nullptr || stop_) return false;
    job_ = &job;
  }
  wake_.notify_all();
  runTasks(job);
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_.wait(lk, [&job] {
      return job.finished.load(std::memory_order_acquire) == job.n &&
             job.active == 0;
    });
    job_ = nullptr;
  }
  if (job.error) std::rethrow_exception(job.error);
  return true;
}

int checkedThreads(std::int64_t requested, std::string_view source) {
  if (requested < 0 || requested > kMaxThreads) {
    throw ParseError(std::string(source) +
                     " must be 0 (all hardware threads) or 1.." +
                     std::to_string(kMaxThreads) + ", got " +
                     std::to_string(requested));
  }
  return static_cast<int>(requested);
}

int parseThreads(std::string_view text, std::string_view source) {
  std::int64_t requested = 0;
  try {
    requested = parseInt(text);
  } catch (const ParseError& e) {
    throw ParseError(std::string(source) + ": " + e.what());
  }
  return checkedThreads(requested, source);
}

int threadsFromEnv(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 1;
  return parseThreads(v, name);
}

}  // namespace rahtm::exec
