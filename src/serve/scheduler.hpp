#pragma once
/// \file scheduler.hpp
/// Work-conserving admission of concurrent mapping requests onto the exec
/// pool.
///
/// Shape: producers (socket connections, the stdin batch reader, bench
/// clients) submit() requests into one FIFO queue. The pool's `threads`
/// serving threads each run one loop: wait for a request (or shutdown),
/// pop the front of the queue, solve it, repeat. No request waits while a
/// thread is free, so a long solve holds one thread and the requests
/// queued behind it go to the others. The loops are the tasks of a single
/// gang region on the scheduler's own pool (ThreadPool::tryGang gives each
/// its own thread); at width >= 2 every request therefore solves inside a
/// pool region, and any inner parallelism the solver asks for (RahtmConfig::
/// numThreads) runs inline and serial on its serving thread, which the
/// pool's determinism contract makes bit-identical to the standalone run.
/// At width 1 the one loop runs outside any region, as a one-shot call
/// does.
///
/// Backpressure: past `maxQueueDepth` queued requests, submit() rejects
/// with a retry-after estimate ((queued + in flight + 1) × EWMA solve time
/// / pool width) instead of queueing unboundedly — the caller sees
/// `accepted == false` and the daemon answers with a retryable error
/// instead of eating memory. In-flight work is bounded by the width.
///
/// Observability: every request runs under a "serve.request" trace span
/// with queue_sec / solve_sec attributes (so --trace-out shows queue wait
/// vs solve time per request), beats the pool-task heartbeat once, and the
/// registry carries `rahtm.serve.{accepted,rejected,completed,errors}`
/// counters, a `rahtm.serve.queue_depth` gauge and
/// `rahtm.serve.{queue,latency}_sec` histograms.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "exec/thread_pool.hpp"
#include "serve/service.hpp"

namespace rahtm::serve {

struct SchedulerConfig {
  int threads = 0;        ///< serving threads (0 = all hardware threads)
  int maxQueueDepth = 64; ///< reject past this many queued requests
};

class Scheduler {
 public:
  struct Ticket {
    bool accepted = false;
    double retryAfterSec = 0;          ///< when rejected: suggested backoff
    std::future<MapResponse> response; ///< valid only when accepted
  };

  /// \p service must outlive the scheduler.
  explicit Scheduler(MapService& service, SchedulerConfig cfg = {});
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueue a request (or reject it under backpressure).
  Ticket submit(MapRequest req);

  /// Block until the queue is empty and no request is in flight.
  void drain();

  /// Stop accepting, serve what is queued, join the serving threads.
  /// Called by the destructor if not already done.
  void shutdown();

  std::int64_t accepted() const { return accepted_; }
  std::int64_t rejected() const { return rejected_; }
  std::int64_t completed() const { return completed_; }
  std::int64_t errors() const { return errors_; }

 private:
  struct Queued {
    MapRequest req;
    std::promise<MapResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// One serving thread: solve queued requests until shutdown leaves the
  /// queue empty.
  void serveLoop();
  void process(Queued& q);

  MapService& service_;
  const SchedulerConfig cfg_;
  exec::ThreadPool pool_;

  mutable std::mutex mu_;
  std::condition_variable wake_;  ///< serving threads wait for work / stop
  std::condition_variable idle_;  ///< drain() waits for quiescence
  std::deque<Queued> queue_;
  bool stop_ = false;
  std::size_t inFlight_ = 0;      ///< requests being solved
  double ewmaSolveSec_ = 0.05;  ///< retry-after estimator

  std::int64_t accepted_ = 0;
  std::int64_t rejected_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t errors_ = 0;

  std::thread dispatcher_;  ///< drives the pool region of serving loops
};

}  // namespace rahtm::serve
