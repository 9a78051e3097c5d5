#include "serve/scheduler.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rahtm::serve {

Scheduler::Scheduler(MapService& service, SchedulerConfig cfg)
    : service_(service), cfg_(cfg), pool_(cfg.threads) {
  dispatcher_ = std::thread([this] {
    // One gang region whose tasks are the serving loops, one per thread.
    // Nothing else uses this pool, so the gang is never refused.
    const bool ganged =
        pool_.tryGang(static_cast<std::size_t>(pool_.numThreads()),
                      [this](std::size_t) { serveLoop(); });
    RAHTM_REQUIRE(ganged, "Scheduler: serving threads refused");
  });
}

Scheduler::~Scheduler() { shutdown(); }

Scheduler::Ticket Scheduler::submit(MapRequest req) {
  Ticket ticket;
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ ||
      queue_.size() >= static_cast<std::size_t>(
                           std::max(1, cfg_.maxQueueDepth))) {
    ++rejected_;
    // Expected time to drain the backlog at the current solve rate: the
    // caller should not retry sooner.
    ticket.retryAfterSec =
        ewmaSolveSec_ *
        static_cast<double>(queue_.size() + inFlight_ + 1) /
        static_cast<double>(std::max(1, pool_.numThreads()));
    lock.unlock();
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("rahtm.serve.rejected").add(1);
    }
    return ticket;
  }
  ++accepted_;
  Queued q;
  q.req = std::move(req);
  q.enqueued = std::chrono::steady_clock::now();
  ticket.accepted = true;
  ticket.response = q.promise.get_future();
  queue_.push_back(std::move(q));
  const auto depth = queue_.size();
  lock.unlock();
  wake_.notify_one();
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("rahtm.serve.accepted").add(1);
    reg->gauge("rahtm.serve.queue_depth").set(static_cast<double>(depth));
  }
  return ticket;
}

void Scheduler::serveLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down with nothing left to serve
    Queued q = std::move(queue_.front());
    queue_.pop_front();
    ++inFlight_;
    lock.unlock();
    // process() never throws: the service folds failures into the response.
    process(q);
    obs::Heartbeats::instance().beat(obs::Pulse::PoolTasks);
    lock.lock();
    --inFlight_;
    if (queue_.empty() && inFlight_ == 0) idle_.notify_all();
  }
}

void Scheduler::process(Queued& q) {
  const double queueSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    q.enqueued)
          .count();
  MapResponse resp;
  {
    obs::ScopedSpan span(obs::tracer(), "serve.request", "serve");
    span.attr("id", q.req.id);
    span.attr("mapper", q.req.mapper);
    span.attr("queue_sec", queueSec);
    try {
      resp = service_.handle(q.req);
    } catch (const std::exception& e) {
      resp.id = q.req.id;
      resp.ok = false;
      resp.error = e.what();
    }
    resp.queueSeconds = queueSec;
    span.attr("solve_sec", resp.solveSeconds);
    span.attr("ok", resp.ok ? std::int64_t{1} : std::int64_t{0});
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++completed_;
    if (!resp.ok) ++errors_;
    // EWMA over completed solves feeds the reject-with-retry-after path.
    ewmaSolveSec_ = 0.8 * ewmaSolveSec_ + 0.2 * resp.solveSeconds;
  }
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("rahtm.serve.completed").add(1);
    if (!resp.ok) reg->counter("rahtm.serve.errors").add(1);
    const auto buckets = obs::expBuckets(1e-4, 2.0, 21);
    reg->histogram("rahtm.serve.queue_sec", buckets).observe(queueSec);
    reg->histogram("rahtm.serve.latency_sec", buckets)
        .observe(queueSec + resp.solveSeconds);
  }
  q.promise.set_value(std::move(resp));
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && inFlight_ == 0; });
}

void Scheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ && !dispatcher_.joinable()) return;
    stop_ = true;
  }
  wake_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

}  // namespace rahtm::serve
