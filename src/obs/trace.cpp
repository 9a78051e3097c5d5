#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <ostream>

#include "common/error.hpp"

namespace rahtm::obs {

namespace {
std::atomic<Tracer*> g_tracer{nullptr};
}  // namespace

Tracer* tracer() { return g_tracer.load(std::memory_order_acquire); }
void setTracer(Tracer* t) { g_tracer.store(t, std::memory_order_release); }

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {
  if (const char* v = std::getenv("RAHTM_TRACE_CAP")) {
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end != v && *end == '\0' && parsed > 0) {
      eventCap_ = static_cast<std::size_t>(parsed);
    }
  }
}

void Tracer::setEventCap(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  eventCap_ = cap;
}

bool Tracer::tryVisitOpenSpans(void (*fn)(void*, const TraceEvent&),
                               void* ctx) const {
  if (!mu_.try_lock()) return false;
  for (const TraceEvent& e : events_) {
    if (e.open()) fn(ctx, e);
  }
  mu_.unlock();
  return true;
}

std::int64_t Tracer::nowUs() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::uint32_t Tracer::threadTagLocked() {
  const std::thread::id self = std::this_thread::get_id();
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i] == self) return static_cast<std::uint32_t>(i);
  }
  threads_.push_back(self);
  return static_cast<std::uint32_t>(threads_.size() - 1);
}

SpanId Tracer::beginSpan(std::string name, std::string category) {
  const std::int64_t ts = nowUs();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= eventCap_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return kNoSpan;
  }
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.startUs = ts;
  e.durUs = -2;  // open
  e.tid = threadTagLocked();
  events_.push_back(std::move(e));
  return static_cast<SpanId>(events_.size() - 1);
}

std::int64_t Tracer::endSpan(SpanId id) {
  const std::int64_t ts = nowUs();
  if (id == kNoSpan) return 0;  // span was dropped at the cap
  std::lock_guard<std::mutex> lock(mu_);
  RAHTM_REQUIRE(id >= 0 && id < static_cast<SpanId>(events_.size()),
                "Tracer::endSpan: bad span id");
  TraceEvent& e = events_[static_cast<std::size_t>(id)];
  if (e.open()) e.durUs = ts - e.startUs;
  return e.durUs;
}

void Tracer::attr(SpanId id, std::string key, std::string jsonValue) {
  if (id == kNoSpan) return;  // span was dropped at the cap
  std::lock_guard<std::mutex> lock(mu_);
  RAHTM_REQUIRE(id >= 0 && id < static_cast<SpanId>(events_.size()),
                "Tracer::attr: bad span id");
  events_[static_cast<std::size_t>(id)].args.emplace_back(
      std::move(key), std::move(jsonValue));
}

void Tracer::instant(std::string name, std::string category,
                     std::vector<std::pair<std::string, std::string>> args) {
  const std::int64_t ts = nowUs();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= eventCap_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.startUs = ts;
  e.durUs = -1;
  e.tid = threadTagLocked();
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

std::vector<TraceEvent> Tracer::snapshot() const {
  const std::int64_t now = nowUs();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out = events_;
  for (TraceEvent& e : out) {
    if (e.open()) e.durUs = now - e.startUs;
  }
  return out;
}

namespace {

void writeArgs(std::ostream& os, const TraceEvent& e) {
  os << "\"args\":{";
  for (std::size_t a = 0; a < e.args.size(); ++a) {
    if (a != 0) os << ",";
    os << jsonString(e.args[a].first) << ":" << e.args[a].second;
  }
  os << "}";
}

}  // namespace

void Tracer::writeChromeTrace(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != 0) os << ",";
    os << "\n{\"name\":" << jsonString(e.name)
       << ",\"cat\":" << jsonString(e.category)
       << ",\"ph\":" << (e.instant() ? "\"i\",\"s\":\"t\"" : "\"X\"")
       << ",\"pid\":1,\"tid\":" << e.tid << ",\"ts\":" << e.startUs;
    if (!e.instant()) os << ",\"dur\":" << e.durUs;
    os << ",";
    writeArgs(os, e);
    os << "}";
  }
  os << "\n]}\n";
}

void Tracer::writeSummary(std::ostream& os) const {
  const std::vector<TraceEvent> events = snapshot();
  struct Agg {
    std::int64_t count = 0;
    std::int64_t totalUs = 0;
    std::int64_t minUs = 0;
    std::int64_t maxUs = 0;
  };
  std::map<std::string, Agg> spans;
  std::map<std::string, std::int64_t> instants;
  for (const TraceEvent& e : events) {
    if (e.instant()) {
      ++instants[e.name];
      continue;
    }
    Agg& a = spans[e.name];
    if (a.count == 0) {
      a.minUs = e.durUs;
      a.maxUs = e.durUs;
    } else {
      a.minUs = std::min(a.minUs, e.durUs);
      a.maxUs = std::max(a.maxUs, e.durUs);
    }
    ++a.count;
    a.totalUs += e.durUs;
  }
  os << "{\"spans\":{";
  bool first = true;
  for (const auto& [name, a] : spans) {
    if (!first) os << ",";
    first = false;
    os << "\n" << jsonString(name) << ":{\"count\":" << a.count
       << ",\"total_us\":" << a.totalUs << ",\"min_us\":" << a.minUs
       << ",\"max_us\":" << a.maxUs << "}";
  }
  os << "\n},\"instants\":{";
  first = true;
  for (const auto& [name, count] : instants) {
    if (!first) os << ",";
    first = false;
    os << "\n" << jsonString(name) << ":{\"count\":" << count << "}";
  }
  os << "\n},\"dropped_events\":" << droppedEvents() << "}\n";
}

}  // namespace rahtm::obs
