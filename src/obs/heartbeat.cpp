#include "obs/heartbeat.hpp"

#include <cstdlib>
#include <cstring>

#include "obs/flight_recorder.hpp"

namespace rahtm::obs {

const char* pulseName(Pulse p) {
  switch (p) {
    case Pulse::SimplexPivots: return "simplex_pivots";
    case Pulse::MilpNodes: return "milp_nodes";
    case Pulse::AnnealIterations: return "anneal_iterations";
    case Pulse::RefineProbes: return "refine_probes";
    case Pulse::SimnetCycles: return "simnet_cycles";
    case Pulse::PoolTasks: return "pool_tasks";
    case Pulse::MergeCandidates: return "merge_candidates";
    case Pulse::kCount: break;
  }
  return "unknown";
}

Heartbeats& Heartbeats::instance() {
  // Leaked for the same reason as the flight recorder: hot loops may beat
  // during static destruction of other translation units.
  static Heartbeats* g = [] {
    auto* hb = new Heartbeats();
    if (const char* v = std::getenv("RAHTM_HEARTBEATS")) {
      if (std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0) {
        hb->setEnabled(false);
      }
    }
    return hb;
  }();
  return *g;
}

Heartbeats::Heartbeats() = default;

int Heartbeats::stripeOfThisThread() {
  static std::atomic<unsigned> next{0};
  thread_local int stripe =
      static_cast<int>(next.fetch_add(1, std::memory_order_relaxed) &
                       static_cast<unsigned>(kStripes - 1));
  return stripe;
}

std::uint64_t Heartbeats::value(Pulse p) const {
  std::uint64_t sum = 0;
  for (int s = 0; s < kStripes; ++s) {
    sum += cell(p, s).load(std::memory_order_relaxed);
  }
  return sum;
}

std::vector<std::pair<const char*, std::uint64_t>> Heartbeats::snapshot()
    const {
  std::vector<std::pair<const char*, std::uint64_t>> out;
  out.reserve(static_cast<std::size_t>(kPulseCount));
  for (int p = 0; p < kPulseCount; ++p) {
    const Pulse pulse = static_cast<Pulse>(p);
    out.emplace_back(pulseName(pulse), value(pulse));
  }
  return out;
}

void Heartbeats::pushPhase(const char* name) {
  std::lock_guard<std::mutex> lock(phaseMu_);
  const int d = phaseDepth_.load(std::memory_order_relaxed);
  if (d < kMaxPhaseDepth) {
    phaseStack_[static_cast<std::size_t>(d)].store(name,
                                                   std::memory_order_relaxed);
    phaseStartUs_[static_cast<std::size_t>(d)].store(
        FlightRecorder::instance().nowUs(), std::memory_order_relaxed);
  }
  phaseDepth_.store(d + 1, std::memory_order_release);
}

void Heartbeats::popPhase() {
  std::lock_guard<std::mutex> lock(phaseMu_);
  const int d = phaseDepth_.load(std::memory_order_relaxed);
  if (d <= 0) return;
  phaseDepth_.store(d - 1, std::memory_order_release);
}

const char* Heartbeats::currentPhase() const {
  int d = phaseDepth_.load(std::memory_order_acquire);
  if (d <= 0) return nullptr;
  if (d > kMaxPhaseDepth) d = kMaxPhaseDepth;
  return phaseStack_[static_cast<std::size_t>(d - 1)].load(
      std::memory_order_relaxed);
}

const char* Heartbeats::phaseAt(int idx) const {
  int d = phaseDepth_.load(std::memory_order_acquire);
  if (d > kMaxPhaseDepth) d = kMaxPhaseDepth;
  if (idx < 0 || idx >= d) return nullptr;
  return phaseStack_[static_cast<std::size_t>(idx)].load(
      std::memory_order_relaxed);
}

int Heartbeats::phaseDepth() const {
  return phaseDepth_.load(std::memory_order_acquire);
}

std::int64_t Heartbeats::currentPhaseStartUs() const {
  int d = phaseDepth_.load(std::memory_order_acquire);
  if (d <= 0) return 0;
  if (d > kMaxPhaseDepth) d = kMaxPhaseDepth;
  return phaseStartUs_[static_cast<std::size_t>(d - 1)].load(
      std::memory_order_relaxed);
}

PhaseScope::PhaseScope(const char* name) : name_(name) {
  Heartbeats& hb = Heartbeats::instance();
  hb.pushPhase(name_);
  FlightRecorder::instance().record(FrEvent::PhaseEnter, hb.phaseDepth(), 0);
}

PhaseScope::~PhaseScope() {
  Heartbeats& hb = Heartbeats::instance();
  FlightRecorder::instance().record(FrEvent::PhaseExit, hb.phaseDepth(), 0);
  hb.popPhase();
}

}  // namespace rahtm::obs
