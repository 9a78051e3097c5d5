#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "obs/mem.hpp"

namespace rahtm::obs {

const char* frEventName(FrEvent e) {
  switch (e) {
    case FrEvent::PhaseEnter: return "phase_enter";
    case FrEvent::PhaseExit: return "phase_exit";
    case FrEvent::SubproblemDispatch: return "subproblem_dispatch";
    case FrEvent::SimplexPivots: return "simplex_pivots";
    case FrEvent::MilpNodes: return "milp_nodes";
    case FrEvent::MilpIncumbent: return "milp_incumbent";
    case FrEvent::AnnealRestart: return "anneal_restart";
    case FrEvent::AnnealEpoch: return "anneal_epoch";
    case FrEvent::RefinePass: return "refine_pass";
    case FrEvent::SimnetEpoch: return "simnet_epoch";
    case FrEvent::PoolTaskBegin: return "pool_task_begin";
    case FrEvent::PoolTaskEnd: return "pool_task_end";
    case FrEvent::WatchdogStall: return "watchdog_stall";
    case FrEvent::Custom: return "custom";
    case FrEvent::kCount: break;
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder* g = [] {
    std::size_t cap = kDefaultCapacity;
    if (const char* v = std::getenv("RAHTM_RECORDER_CAPACITY")) {
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (end != v && *end == '\0' && parsed > 0) {
        cap = static_cast<std::size_t>(parsed);
      }
    }
    // Leaked on purpose: instrumentation sites may record during static
    // destruction; a function-local static object could be torn down first.
    auto* rec = new FlightRecorder(cap);
    if (const char* v = std::getenv("RAHTM_RECORDER")) {
      if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) {
        rec->setEnabled(false);
      }
    }
    return rec;
  }();
  return *g;
}

namespace {
/// Process-unique recorder ids: the thread-local slot cache in threadSlot()
/// keys on (address, generation), so a recorder constructed at a recycled
/// address (stack-allocated test recorders) can never inherit stale hits.
std::atomic<std::uint64_t> gNextRecorderGen{1};

/// Process-unique, never-reused token of the calling thread (>= 1), the
/// owner a slot records.
std::uint64_t threadToken() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token;
}
}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacityPerThread, int maxThreads)
    : capacity_(std::max<std::size_t>(1, capacityPerThread)),
      maxThreads_(std::clamp(maxThreads, 1, kMaxThreads)),
      gen_(gNextRecorderGen.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()),
      // Zeroed pages on first touch: a ring becomes resident as its thread
      // writes it, not here. All-zero bytes are a default-constructed
      // FlightEventRecord. calloc refuses a size that overflows, which a
      // huge RAHTM_RECORDER_CAPACITY would otherwise wrap.
      storage_(static_cast<FlightEventRecord*>(std::calloc(
          capacity_,
          static_cast<std::size_t>(maxThreads_) * sizeof(FlightEventRecord)))) {
  if (!storage_) throw std::bad_alloc();
  for (int i = 0; i < maxThreads_; ++i) {
    slots_[static_cast<std::size_t>(i)].ring =
        storage_.get() + static_cast<std::size_t>(i) * capacity_;
  }
}

FlightRecorder::~FlightRecorder() {
  MemRegistry::instance().untrack(MemAccountId::Obs,
                                  threadSlots() * ringBytes());
}

std::int64_t FlightRecorder::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int FlightRecorder::threadSlot() {
  // Small per-thread cache of (recorder -> slot). One global recorder is
  // the common case; tests with private recorders rotate through the
  // entries.
  struct Cache {
    const FlightRecorder* rec[4] = {nullptr, nullptr, nullptr, nullptr};
    std::uint64_t gen[4] = {0, 0, 0, 0};
    int slot[4] = {-1, -1, -1, -1};
    int next = 0;
  };
  thread_local Cache cache;
  for (int i = 0; i < 4; ++i) {
    if (cache.rec[i] == this && cache.gen[i] == gen_) return cache.slot[i];
  }
  const int s = registerThread();
  const int e = cache.next;
  cache.next = (cache.next + 1) & 3;
  cache.rec[e] = this;
  cache.gen[e] = gen_;
  cache.slot[e] = s;
  return s;
}

int FlightRecorder::registerThread() {
  const std::uint64_t self = threadToken();
  // Re-scan first: the thread may already own a slot that fell out of its
  // cache (possible when several recorders interleave on one thread).
  const int n = threadSlots();
  for (int i = 0; i < n; ++i) {
    if (slots_[static_cast<std::size_t>(i)].owner.load(
            std::memory_order_acquire) == self) {
      return i;
    }
  }
  // Charge the ring before claiming a slot. A budget refusal leaves the
  // thread without a slot, so its events drop as they do when the table is
  // full: record() never throws.
  try {
    track(MemAccountId::Obs, ringBytes());
  } catch (const MemBudgetError&) {
    return -1;
  }
  const int s = slotCount_.fetch_add(1, std::memory_order_acq_rel);
  if (s >= maxThreads_) {  // table exhausted; events will drop
    MemRegistry::instance().untrack(MemAccountId::Obs, ringBytes());
    return -1;
  }
  slots_[static_cast<std::size_t>(s)].owner.store(self,
                                                  std::memory_order_release);
  return s;
}

std::uint64_t FlightRecorder::totalRecorded() const {
  std::uint64_t total = 0;
  const int n = threadSlots();
  for (int i = 0; i < n; ++i) {
    total += slots_[static_cast<std::size_t>(i)].head.load(
        std::memory_order_acquire);
  }
  return total;
}

std::size_t FlightRecorder::copySlot(int slot, FlightEventRecord* out,
                                     std::size_t max,
                                     std::uint64_t* totalOut) const {
  if (slot < 0 || slot >= threadSlots() || max == 0) {
    if (totalOut != nullptr) *totalOut = 0;
    return 0;
  }
  const Slot& sl = slots_[static_cast<std::size_t>(slot)];
  const std::uint64_t head = sl.head.load(std::memory_order_acquire);
  if (totalOut != nullptr) *totalOut = head;
  std::uint64_t count = head < capacity_ ? head : capacity_;
  if (count > max) count = max;
  const std::uint64_t start = head - count;
  for (std::uint64_t k = 0; k < count; ++k) {
    out[k] = sl.ring[(start + k) % capacity_];
  }
  return static_cast<std::size_t>(count);
}

std::vector<FlightRecorder::ThreadSnapshot> FlightRecorder::snapshot() const {
  std::vector<ThreadSnapshot> out;
  const int n = threadSlots();
  out.reserve(static_cast<std::size_t>(n));
  std::vector<FlightEventRecord> buf(capacity_);
  for (int i = 0; i < n; ++i) {
    ThreadSnapshot ts;
    ts.slot = i;
    const std::size_t got = copySlot(i, buf.data(), capacity_, &ts.total);
    ts.events.assign(buf.begin(),
                     buf.begin() + static_cast<std::ptrdiff_t>(got));
    out.push_back(std::move(ts));
  }
  return out;
}

}  // namespace rahtm::obs
