#pragma once
/// \file heartbeat.hpp
/// Always-on liveness counters for the run-forensics layer.
///
/// Every instrumented hot loop (simplex pivots, MILP branch-and-bound
/// nodes, annealing iterations, refinement probes, merge candidates,
/// simulator cycles, pool tasks) publishes progress by bumping a monotonic
/// heartbeat counter. The watchdog (obs/watchdog.hpp) samples the counters
/// periodically: as long
/// as *any* counter moved, the process is making progress; when none moved
/// for longer than the active phase's deadline, the run is stalled and the
/// watchdog escalates (log -> post-mortem dump -> optional abort). The
/// post-mortem writer (obs/postmortem.hpp) embeds the last counter values
/// in every `rahtm.postmortem/v1` artifact.
///
/// Overhead discipline (the `obs_overhead` bench suite gates the whole
/// forensics layer at <= 2%):
///   * `beat()` is one relaxed fetch_add on a cache-line-padded stripe
///     selected per thread, so concurrent hot loops (anneal restarts on the
///     pool, parallel refinement) never contend on a shared line;
///   * counters carry no timestamps — the watchdog derives "time since last
///     progress" by diffing successive samples on its own clock;
///   * extremely hot loops batch their beats (e.g. one beat(64) per 64
///     annealing iterations).
///
/// Phase publication: `PhaseScope` (see below) maintains a small fixed-depth
/// stack of phase names so the watchdog can apply per-phase deadlines and a
/// post-mortem can say *where* the run died. The stack is written by the
/// orchestrating thread only (pipeline phases, simulator runs, tool
/// drivers); instrumenting pool *tasks* with PhaseScope is not supported.
/// Names must have static storage duration (string literals) — they are
/// published as raw pointers and read from the watchdog thread and from
/// signal handlers.

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace rahtm::obs {

/// One heartbeat series per instrumented hot loop.
enum class Pulse : int {
  SimplexPivots = 0,  ///< lp/simplex.cpp pivot loop
  MilpNodes,          ///< lp/milp.cpp branch-and-bound node loop
  AnnealIterations,   ///< core/subproblem.cpp annealing moves
  RefineProbes,       ///< core/refine.cpp swap probes
  SimnetCycles,       ///< simnet/simulator.cpp cycle loop
  PoolTasks,          ///< exec/thread_pool.cpp completed tasks
  MergeCandidates,    ///< core/merge.cpp beam candidates scored
  kCount,
};
constexpr int kPulseCount = static_cast<int>(Pulse::kCount);

/// Canonical snake_case name of a pulse (used as the JSON key in
/// post-mortem artifacts).
const char* pulseName(Pulse p);

class Heartbeats {
 public:
  static constexpr int kStripes = 8;       ///< contention stripes per pulse
  static constexpr int kMaxPhaseDepth = 16;

  /// Process-global instance, constructed on first use. Always on unless
  /// the RAHTM_HEARTBEATS environment variable says `off`/`0`.
  static Heartbeats& instance();

  Heartbeats();

  /// Record \p n units of progress. Wait-free; safe from any thread.
  void beat(Pulse p, std::uint64_t n = 1) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    cell(p, stripeOfThisThread()).fetch_add(n, std::memory_order_relaxed);
  }

  /// Current counter value (sum over stripes). Successive reads from one
  /// thread are monotonically non-decreasing.
  std::uint64_t value(Pulse p) const;

  /// All counters in Pulse order, named. Allocates; not for signal context
  /// (use value()/pulseName() there).
  std::vector<std::pair<const char*, std::uint64_t>> snapshot() const;

  /// Runtime kill switch, used by the obs_overhead suite to measure the
  /// instrumented-vs-disabled delta within one binary.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  // ---- Phase stack ------------------------------------------------------
  // Writers (PhaseScope) serialize on a mutex — phase transitions are rare.
  // Readers (watchdog thread, signal handlers) only load atomics and never
  // block.
  /// \p name must have static storage duration. Pushes beyond
  /// kMaxPhaseDepth are counted but otherwise ignored.
  void pushPhase(const char* name);
  void popPhase();
  /// Innermost open phase, or nullptr outside any phase.
  const char* currentPhase() const;
  /// Phase name at stack index (0 = outermost); nullptr out of range.
  const char* phaseAt(int idx) const;
  int phaseDepth() const;
  /// Steady-clock microseconds when the innermost phase was entered
  /// (process-epoch of the flight recorder); 0 outside any phase.
  std::int64_t currentPhaseStartUs() const;

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };

  std::atomic<std::uint64_t>& cell(Pulse p, int stripe) {
    return cells_[static_cast<std::size_t>(static_cast<int>(p) * kStripes +
                                           stripe)]
        .v;
  }
  const std::atomic<std::uint64_t>& cell(Pulse p, int stripe) const {
    return cells_[static_cast<std::size_t>(static_cast<int>(p) * kStripes +
                                           stripe)]
        .v;
  }
  static int stripeOfThisThread();

  std::array<Cell, static_cast<std::size_t>(kPulseCount* kStripes)> cells_;
  std::atomic<bool> enabled_{true};

  std::mutex phaseMu_;  ///< serializes pushPhase/popPhase only
  std::atomic<int> phaseDepth_{0};
  std::array<std::atomic<const char*>, kMaxPhaseDepth> phaseStack_{};
  std::array<std::atomic<std::int64_t>, kMaxPhaseDepth> phaseStartUs_{};
};

/// RAII phase marker: publishes the phase to the global Heartbeats stack
/// and records PhaseEnter/PhaseExit events in the global flight recorder.
/// \p name must be a string literal (static storage duration).
class PhaseScope {
 public:
  explicit PhaseScope(const char* name);
  ~PhaseScope();
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const char* name_;
};

}  // namespace rahtm::obs
