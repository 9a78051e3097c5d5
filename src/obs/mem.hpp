#pragma once
/// \file mem.hpp
/// Subsystem-attributed memory accounting and the budget enforced against
/// it. Process-wide VmHWM says *that* a run peaked at N GB; this registry
/// says *which structure* owns those bytes — the route tables, the
/// flow-incidence CSR, the simulator's shard queues, the LP tableau — and
/// enforces a budget against them before the kernel's OOM killer does.
///
/// Design constraints, in order:
///  * **Always on, near-zero overhead.** Accounting is coarse-grained: the
///    heavy owners report their footprint at build/rebuild/compaction
///    points (one relaxed atomic add each), never per element. The
///    `mem_micro` ledger gates the measured overhead ratio at <= 2%, the
///    same budget the forensics layer carries.
///  * **Crash-readable.** All counters are relaxed atomics in fixed-size
///    arrays, so the post-mortem writer can serialize a memory section from
///    signal context with no locks and no allocation.
///  * **Deterministic enforcement.** The budget is checked against the
///    *accounted* byte total, which is a pure function of the workload —
///    not against sampled RSS, which varies with allocator slack and page
///    cache. Sampled VmRSS (taken on the watchdog poll thread) is recorded
///    as a drift metric instead: when `accounted / rss` decays, the
///    accounting itself has a coverage bug worth fixing.
///
/// Budget policy (RAHTM_MEM_BUDGET_MB / --mem-budget-mb, 0 = unlimited),
/// two rungs on the accounted total:
///   WARN (80% of budget): log the per-account breakdown, once per
///                         setBudgetBytes
///   FAIL (past 100%):     the track() that would pass the budget adds
///                         nothing and throws MemBudgetError with the
///                         breakdown, so the run dies with a named owner
///                         instead of being OOM-killed without a trace.
///                         Every such track() throws; no total, peak or
///                         concurrent track() ever sees a refused addition.
///
/// Environment:
///   RAHTM_MEM_BUDGET_MB = budget in MiB (0/unset = unlimited; a malformed,
///                         negative or overflowing value warns and arms
///                         no budget)
///   RAHTM_MEM_TRACK     = off|0 disables accounting (overhead experiments)

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>

#include "common/error.hpp"

namespace rahtm::obs {

/// The named accounts. Fixed at compile time so counters live in a plain
/// array readable from signal context; `Other` catches instrumentation that
/// has no better home and keeps the enum total-able.
enum class MemAccountId : int {
  RouteTable = 0,  ///< RouteTable index + route arenas (routing/delta_eval)
  FlowIncidence,   ///< CSR flow incidence (graph/comm_graph)
  Simnet,          ///< simulator queues, mailboxes, message state (simnet)
  Lp,              ///< simplex tableau / basis matrices (lp)
  Mapper,          ///< placement engines, refine/anneal working state (core)
  Obs,             ///< flight-recorder rings, post-mortem buffers (obs)
  Other,
};
inline constexpr int kMemAccountCount = 7;

/// Stable snake_case name ("route_table", ...) used in ledgers, post-mortems
/// and --mem-report tables.
const char* memAccountName(MemAccountId id);

/// A track() would have passed the budget. Derived from rahtm::Error so the
/// tools' top-level handlers turn it into exit 1 with the breakdown.
class MemBudgetError : public Error {
 public:
  explicit MemBudgetError(const std::string& what) : Error(what) {}
};

/// Registry of per-account byte counters plus budget enforcement. One
/// process-global instance (instance()); separate instances are
/// constructible for tests.
class MemRegistry {
 public:
  MemRegistry();
  MemRegistry(const MemRegistry&) = delete;
  MemRegistry& operator=(const MemRegistry&) = delete;

  /// Process-global registry. First use reads RAHTM_MEM_BUDGET_MB /
  /// RAHTM_MEM_TRACK; the object is leaked so crash handlers can read it at
  /// any point of process teardown.
  static MemRegistry& instance();

  // ---- Accounting ---------------------------------------------------------

  /// Record \p bytes (>= 0) as live under \p id. Throws MemBudgetError,
  /// with nothing recorded, when the addition would pass the budget.
  void track(MemAccountId id, std::int64_t bytes);
  /// Release \p bytes previously tracked. Never escalates, never throws.
  void untrack(MemAccountId id, std::int64_t bytes) noexcept;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Disabling makes track/untrack a single relaxed load (the overhead
  /// experiment's "off" side). Counters keep their values.
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::int64_t currentBytes(MemAccountId id) const;
  std::int64_t peakBytes(MemAccountId id) const;
  std::int64_t totalCurrentBytes() const {
    return totalCurrent_.load(std::memory_order_relaxed);
  }
  std::int64_t totalPeakBytes() const {
    return totalPeak_.load(std::memory_order_relaxed);
  }

  // ---- Phase high-water marks --------------------------------------------

  /// Total accounted peak since the last resetPhasePeak() — the per-phase
  /// attribution RahtmStats records next to its quality trail.
  std::int64_t phasePeakBytes() const {
    return phasePeak_.load(std::memory_order_relaxed);
  }
  void resetPhasePeak() {
    phasePeak_.store(totalCurrent_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }

  // ---- Budget -------------------------------------------------------------

  /// Set the budget (0 = unlimited). Resets the escalation stage —
  /// callers change the budget only between runs, not mid-solve.
  void setBudgetBytes(std::int64_t bytes);
  /// Largest budget setBudgetMb accepts: its byte count fits in int64.
  static constexpr std::int64_t kMaxBudgetMb = INT64_MAX >> 20;
  /// Set the budget in MiB, as --mem-budget-mb and RAHTM_MEM_BUDGET_MB
  /// give it. Throws ParseError naming \p source for a value below 0 or
  /// above kMaxBudgetMb.
  void setBudgetMb(std::int64_t mb, const std::string& source);
  std::int64_t budgetBytes() const {
    return budgetBytes_.load(std::memory_order_relaxed);
  }
  /// Highest escalation stage reached (0 ok, 1 warn, 2 fail).
  int budgetStage() const { return stage_.load(std::memory_order_relaxed); }

  // ---- RSS sampling -------------------------------------------------------

  /// Read VmRSS from /proc and fold it into the sampled peak; called by the
  /// watchdog poll thread and at suite boundaries. Records the drift
  /// between accounted bytes and real RSS into the metrics registry (when
  /// installed) as mem.sampled_rss_bytes / mem.accounted_bytes gauges.
  void sampleRss();
  std::int64_t sampledRssBytes() const {
    return sampledRss_.load(std::memory_order_relaxed);
  }
  std::int64_t sampledRssPeakBytes() const {
    return sampledRssPeak_.load(std::memory_order_relaxed);
  }
  /// VmRSS when the registry was constructed: the process baseline (code
  /// pages, libc, allocator warmup) that no subsystem owns. Coverage is
  /// therefore defined against RSS *growth*: accounted peak over
  /// (VmHWM - baseline). The tools touch instance() first thing in main so
  /// the baseline predates every tracked allocation.
  std::int64_t baselineRssBytes() const {
    return baselineRss_.load(std::memory_order_relaxed);
  }

  // ---- Reporting ----------------------------------------------------------

  /// Human-readable per-account table (--mem-report).
  void writeReport(std::ostream& os) const;

  /// Reset counters, peaks and stage. Test-only: live MemAccount
  /// scopes keep their byte tallies and would go negative on destruction.
  void resetForTest();

 private:
  /// \p total is the would-be total with \p bytes added to \p id. Logs
  /// WARN, or throws past the budget; returns when the addition is admitted.
  void escalate(MemAccountId id, std::int64_t bytes, std::int64_t total);
  /// "X MB [account=Y MB ...]" with \p bytes counted under \p id.
  std::string breakdown(std::int64_t total, MemAccountId id,
                        std::int64_t bytes) const;

  struct Slot {
    std::atomic<std::int64_t> current{0};
    std::atomic<std::int64_t> peak{0};
  };
  Slot slots_[kMemAccountCount];
  std::atomic<std::int64_t> totalCurrent_{0};
  std::atomic<std::int64_t> totalPeak_{0};
  std::atomic<std::int64_t> phasePeak_{0};
  std::atomic<bool> enabled_{true};

  std::atomic<std::int64_t> budgetBytes_{0};
  /// The WARN limit until WARN fires, then the budget itself; INT64_MAX
  /// when unlimited, so the hot path is one relaxed compare.
  std::atomic<std::int64_t> nextLimit_;
  std::atomic<int> stage_{0};

  std::atomic<std::int64_t> sampledRss_{0};
  std::atomic<std::int64_t> sampledRssPeak_{0};
  std::atomic<std::int64_t> baselineRss_{0};

  mutable std::mutex mu_;  ///< serializes budget changes and escalation
};

/// RAII byte tally against one account of the global registry. Owners embed
/// one per tracked structure and call set() with the recomputed footprint at
/// build/rebuild/compaction points; the destructor returns whatever is still
/// tallied. Copying tracks the bytes again (two copies are live); moving
/// transfers the tally.
class MemAccount {
 public:
  explicit MemAccount(MemAccountId id, std::int64_t bytes = 0) : id_(id) {
    if (bytes > 0) add(bytes);
  }
  MemAccount(const MemAccount& other) : id_(other.id_) { add(other.bytes_); }
  MemAccount(MemAccount&& other) noexcept
      : id_(other.id_), bytes_(other.bytes_) {
    other.bytes_ = 0;
  }
  MemAccount& operator=(const MemAccount& other) {
    if (this != &other) {
      release();  // return the old tally to the old account first
      id_ = other.id_;
      add(other.bytes_);
    }
    return *this;
  }
  MemAccount& operator=(MemAccount&& other) noexcept {
    if (this != &other) {
      release();
      id_ = other.id_;
      bytes_ = other.bytes_;
      other.bytes_ = 0;
    }
    return *this;
  }
  ~MemAccount() { release(); }

  /// Adjust the tally to an absolute footprint (tracks or untracks the
  /// delta). track() may throw MemBudgetError on growth past the budget;
  /// the tally then stays as it was.
  void set(std::int64_t bytes) {
    if (bytes > bytes_) {
      add(bytes - bytes_);
    } else if (bytes < bytes_) {
      MemRegistry::instance().untrack(id_, bytes_ - bytes);
      bytes_ = bytes;
    }
  }
  void add(std::int64_t delta) {
    if (delta <= 0) return;
    MemRegistry::instance().track(id_, delta);
    bytes_ += delta;
  }
  std::int64_t bytes() const { return bytes_; }
  MemAccountId account() const { return id_; }

 private:
  void release() noexcept {
    if (bytes_ > 0) MemRegistry::instance().untrack(id_, bytes_);
    bytes_ = 0;
  }
  MemAccountId id_;
  std::int64_t bytes_ = 0;
};

/// Convenience wrapper over the global registry for a charge that lives
/// as long as the process (the pre-reserved post-mortem buffers).
inline void track(MemAccountId id, std::int64_t bytes) {
  MemRegistry::instance().track(id, bytes);
}

}  // namespace rahtm::obs
