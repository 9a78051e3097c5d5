#pragma once
/// \file flight_recorder.hpp
/// Always-on flight recorder: per-thread fixed-size ring buffers of compact
/// structured events, kept in pre-reserved memory so a crash or stall
/// handler can flush the last moments of every thread into a
/// `rahtm.postmortem/v1` artifact (obs/postmortem.hpp).
///
/// Unlike the opt-in tracer (obs/trace.hpp), the recorder is enabled by
/// default in every process that links obs — the runs that need forensics
/// are exactly the ones nobody thought to pass `--trace-out` to. The cost
/// model that makes always-on acceptable (gated <= 2% by the obs_overhead
/// suite):
///   * an event is 32 bytes, written into a per-thread ring with plain
///     stores plus one release store of the ring head — no locks, no
///     allocation, no clock syscalls beyond one steady_clock read;
///   * hot loops record *milestones* (every 2^k pivots / cycles /
///     iterations), not individual operations;
///   * rings are bounded: old events are overwritten, never reallocated;
///   * ring storage is reserved at construction as zeroed pages the kernel
///     supplies on first touch, so a ring costs resident memory only as
///     its thread writes it, and the `obs` account is charged one ring
///     when a thread registers its slot.
///
/// Concurrency contract: each ring has exactly one writer (its owning
/// thread). Readers (watchdog, post-mortem writer, snapshot()) copy the
/// ring without stopping the writer; on a wrapped ring the *oldest* entries
/// race with the writer and may come out torn. That is deliberate — the
/// recorder is a forensic device, and a possibly-torn oldest event beats a
/// lock on the hot path. snapshot() is for tests and normal-path dumps;
/// copySlot() is the allocation-free crash-path primitive.
///
/// Environment:
///   RAHTM_RECORDER          = off|0 disables the global recorder
///   RAHTM_RECORDER_CAPACITY = events per thread ring (default 2048)

#include <atomic>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

namespace rahtm::obs {

/// Compact event kinds. Keep in sync with frEventName().
enum class FrEvent : std::uint16_t {
  PhaseEnter = 0,      ///< a = depth, b = 0             (name via phase stack)
  PhaseExit,           ///< a = depth, b = 0
  SubproblemDispatch,  ///< a = vertices, b = cube nodes
  SimplexPivots,       ///< a = pivots so far, b = rows   (milestone)
  MilpNodes,           ///< a = nodes explored, b = open  (milestone)
  MilpIncumbent,       ///< a = node index, b = objective (truncated)
  AnnealRestart,       ///< a = restart index, b = vertices
  AnnealEpoch,         ///< a = restart index, b = iteration (milestone)
  RefinePass,          ///< a = pass index, b = swaps applied so far
  SimnetEpoch,         ///< a = cycle, b = messages remaining (milestone)
  PoolTaskBegin,       ///< a = task index, b = region size
  PoolTaskEnd,         ///< a = task index, b = region size
  WatchdogStall,       ///< a = escalation stage, b = stalled seconds
  Custom,              ///< free-form (tests, tools)
  kCount,
};

/// Canonical snake_case name (JSON `code` field in post-mortems).
const char* frEventName(FrEvent e);

/// One recorded event. 32 bytes.
struct FlightEventRecord {
  std::int64_t tUs = 0;    ///< microseconds since the recorder's epoch
  std::int64_t a = 0;      ///< payload (meaning per FrEvent)
  std::int64_t b = 0;      ///< payload
  std::uint16_t code = 0;  ///< FrEvent
  std::uint16_t slot = 0;  ///< owning thread slot
  std::uint32_t pad = 0;
};

class FlightRecorder {
 public:
  static constexpr int kMaxThreads = 64;
  static constexpr std::size_t kDefaultCapacity = 2048;

  /// Process-global recorder; constructed (and its rings pre-reserved) on
  /// first use, honoring the RAHTM_RECORDER* environment variables.
  static FlightRecorder& instance();

  /// Direct construction is for tests and special tools; everything else
  /// goes through instance(). \p maxThreads is clamped to [1, kMaxThreads].
  explicit FlightRecorder(std::size_t capacityPerThread = kDefaultCapacity,
                          int maxThreads = kMaxThreads);
  /// Returns the registered slots' rings to the `obs` account.
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event on the calling thread's ring. Wait-free; drops (and
  /// counts) the event when the thread-slot table is exhausted or the
  /// recorder is disabled-at-runtime... disabled events are not counted as
  /// drops, they are simply off.
  void record(FrEvent code, std::int64_t a = 0, std::int64_t b = 0) {
    if (!enabled_.load(std::memory_order_relaxed)) return;
    const int s = threadSlot();
    if (s < 0) {
      droppedEvents_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slot& sl = slots_[static_cast<std::size_t>(s)];
    const std::uint64_t h = sl.head.load(std::memory_order_relaxed);
    FlightEventRecord& e = sl.ring[h % capacity_];
    e.tUs = nowUs();
    e.a = a;
    e.b = b;
    e.code = static_cast<std::uint16_t>(code);
    e.slot = static_cast<std::uint16_t>(s);
    sl.head.store(h + 1, std::memory_order_release);
  }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void setEnabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Microseconds since this recorder's construction (steady clock).
  std::int64_t nowUs() const;

  std::size_t capacity() const { return capacity_; }
  /// Registered thread slots so far.
  int threadSlots() const {
    const int n = slotCount_.load(std::memory_order_acquire);
    return n > maxThreads_ ? maxThreads_ : n;
  }
  /// Events dropped because the slot table was exhausted.
  std::int64_t droppedEvents() const {
    return droppedEvents_.load(std::memory_order_relaxed);
  }
  /// Total events ever recorded across all slots (ring overwrites are not
  /// drops; this counts what was written, not what is still resident).
  std::uint64_t totalRecorded() const;

  /// Copy the newest events of \p slot (at most \p max) into \p out in
  /// oldest-first order; returns the count. \p totalOut (optional) receives
  /// the slot's lifetime event count. Allocation-free and lock-free: safe
  /// from the watchdog thread and tolerable from a signal handler.
  std::size_t copySlot(int slot, FlightEventRecord* out, std::size_t max,
                       std::uint64_t* totalOut = nullptr) const;

  struct ThreadSnapshot {
    int slot = 0;
    std::uint64_t total = 0;  ///< lifetime events on this slot
    std::vector<FlightEventRecord> events;  ///< resident, oldest first
  };
  /// Copy of every registered slot's resident events (normal path only).
  std::vector<ThreadSnapshot> snapshot() const;

 private:
  struct alignas(64) Slot {
    /// Token of the owning thread (0: unowned). A std::thread::id is reused
    /// once its thread is joined; a token never is.
    std::atomic<std::uint64_t> owner{0};
    std::atomic<std::uint64_t> head{0};
    FlightEventRecord* ring = nullptr;
  };

  struct FreeStorage {
    void operator()(FlightEventRecord* p) const { std::free(p); }
  };

  int threadSlot();
  int registerThread();
  /// Bytes of one slot's ring, charged to `obs` when the slot registers.
  std::int64_t ringBytes() const {
    return static_cast<std::int64_t>(capacity_ * sizeof(FlightEventRecord));
  }

  std::size_t capacity_;
  int maxThreads_;
  std::uint64_t gen_;  ///< process-unique id for the thread-slot cache
  std::chrono::steady_clock::time_point epoch_;
  /// Every slot's ring, zeroed pages from calloc; never resized, so each
  /// ring pointer is fixed at construction.
  std::unique_ptr<FlightEventRecord[], FreeStorage> storage_;
  std::array<Slot, kMaxThreads> slots_;
  std::atomic<int> slotCount_{0};
  std::atomic<std::int64_t> droppedEvents_{0};
  std::atomic<bool> enabled_{true};
};

}  // namespace rahtm::obs
