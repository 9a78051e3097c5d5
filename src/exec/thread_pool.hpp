#pragma once
/// \file thread_pool.hpp
/// Deterministic fork-join execution for the compute phases.
///
/// The RAHTM pipeline's hot loops (phase-2 subproblem waves, annealing
/// restarts, the final-refinement pair) are embarrassingly parallel: every
/// task writes only to its own index-addressed result slot. `ThreadPool`
/// provides exactly that shape — a fixed set of workers plus a blocking
/// `parallelFor(n, fn)` — and nothing else (no futures, no task graph), so
/// the determinism contract is easy to audit:
///
///   * task i receives only its index; any randomness must come from a
///     stream pre-split by index before the fork;
///   * tasks never reduce concurrently — callers collect into slots and
///     reduce in index order after the join;
///   * therefore results are bit-identical for every thread count,
///     including 1 (where everything runs inline on the caller).
///
/// Nesting: the calling thread participates in the loop, and a
/// `parallelFor` issued from inside a worker runs inline (serial). This
/// makes nested use safe by construction — the pin wave can parallelize
/// across sibling subproblems while each subproblem's annealing restarts
/// transparently degrade to serial, and a single-subproblem wave (the root
/// level) leaves the pool free for the restarts instead.
///
/// Telemetry: when a metrics registry is installed, each parallel region
/// updates the `exec.pool.utilization` gauge (busy time / (threads × wall
/// time) of the region) and the `exec.pool.tasks` / `exec.pool.regions`
/// counters.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace rahtm::exec {

/// The most threads any configuration may ask for. Results are
/// bit-identical for every thread count (DESIGN.md §9), so more threads
/// could only waste resources; the bound keeps one request line or
/// environment value from starting billions of them.
inline constexpr int kMaxThreads = 256;

class ThreadPool {
 public:
  /// A pool running at \p threads total concurrency (workers + the calling
  /// thread). `threads <= 1` spawns no workers and runs everything inline;
  /// `threads == 0` means one per hardware thread. Requires
  /// `threads <= kMaxThreads` (see resolveThreads). A pool built on a
  /// thread inside a parallel region spawns no workers either
  /// (numThreads() is 1): its regions would all run inline there.
  explicit ThreadPool(int threads = 1);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (including the caller).
  int numThreads() const { return threadCount_; }

  /// Run fn(0) .. fn(n-1), returning after all calls complete. The caller
  /// executes tasks too. The first exception thrown by a task is rethrown
  /// here (remaining tasks still run). Reentrant calls — from inside a
  /// task, or while another thread drives a region — run inline.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Gang-schedule fn(0) .. fn(n-1) on n *distinct* threads, or refuse.
  /// parallelFor degrades to inline serial execution whenever true
  /// concurrency is unavailable (busy pool, nested call) — correct for
  /// independent tasks, fatal for tasks that synchronize with each other
  /// through a barrier (the inline gang would deadlock on itself). tryGang
  /// returns false *without running anything* in those situations; callers
  /// fall back to a one-participant gang. Requires n <= numThreads(); a
  /// thread blocked inside its task cannot be handed a second one, so a
  /// true return guarantees n distinct threads participated.
  bool tryGang(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Resolve a configured thread count: 0 -> hardware concurrency (at most
  /// kMaxThreads), anything else clamped to >= 1. A count above kMaxThreads
  /// is a PreconditionError: outside input is bounded by checkedThreads
  /// before it gets here.
  static int resolveThreads(int requested);

  /// True while the calling thread is executing tasks of some pool's
  /// parallel region. Algorithms that gang-schedule workers (e.g. the
  /// simulator's per-cycle barrier loop) must check this and fall back to a
  /// single participant — a nested parallelFor runs its tasks inline on one
  /// thread, which would deadlock a multi-participant barrier.
  static bool inParallelRegion();

 private:
  struct Job;

  void workerLoop();
  void runTasks(Job& job);

  int threadCount_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable wake_;  ///< workers wait for a job (or stop)
  std::condition_variable done_;  ///< the caller waits for job completion
  Job* job_ = nullptr;            ///< the active parallel region, if any
  bool stop_ = false;
};

/// \p requested as a thread count: 0 (all hardware threads, resolved at
/// pool construction) through kMaxThreads. Anything else throws ParseError
/// naming \p source, the flag, environment variable or request member the
/// value came from.
int checkedThreads(std::int64_t requested, std::string_view source);

/// checkedThreads of the integer spelled by \p text; malformed text also
/// throws a ParseError naming \p source.
int parseThreads(std::string_view text, std::string_view source);

/// Thread count from the environment variable \p name (parseThreads);
/// 1 (serial) when it is unset or empty.
int threadsFromEnv(const char* name = "RAHTM_THREADS");

}  // namespace rahtm::exec
