#pragma once
/// \file trace.hpp
/// Span-based structured tracer.
///
/// A `Tracer` records nested spans (name, category, thread, steady-clock
/// microsecond timestamps, key/value attributes) and instant events, and
/// serializes them either as Chrome `trace_event` JSON — loadable directly
/// in chrome://tracing or https://ui.perfetto.dev — or as a flat JSON
/// summary (per-name count / total / min / max durations).
///
/// Tracing is *opt-in and zero-cost when disabled*: the process-global
/// tracer is a plain pointer that defaults to null, and every
/// instrumentation site goes through `ScopedSpan`, which performs nothing
/// but two steady-clock reads when the tracer is null. The clock reads are
/// kept even when disabled because the RAHTM pipeline derives its
/// `RahtmStats` phase timings from the same spans (see core/rahtm.cpp) —
/// they cost nanoseconds and only run a handful of times per mapping.
///
/// Thread safety: all Tracer methods are safe to call concurrently; events
/// are appended under a mutex (tracing targets phase/solver granularity,
/// not per-flit granularity, so contention is negligible).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace rahtm::obs {

/// Index of an open span inside its tracer.
using SpanId = std::int64_t;
constexpr SpanId kNoSpan = -1;

/// One recorded event. Times are integer microseconds since the tracer's
/// construction (steady clock).
struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t startUs = 0;
  /// Duration in microseconds; -1 marks an instant event, -2 a span that
  /// is still open (snapshot()/writers close those at "now").
  std::int64_t durUs = -1;
  std::uint32_t tid = 0;
  /// Attributes as (key, pre-encoded JSON value literal) pairs — build the
  /// values with jsonString/jsonInt/jsonDouble.
  std::vector<std::pair<std::string, std::string>> args;

  bool instant() const { return durUs == -1; }
  bool open() const { return durUs == -2; }
};

class Tracer {
 public:
  /// Default event cap (RAHTM_TRACE_CAP overrides): deliberately generous —
  /// the cap exists so a long simnet run with tracing left on degrades into
  /// a counted drop instead of unbounded memory growth.
  static constexpr std::size_t kDefaultEventCap = 1 << 20;

  Tracer();

  /// Start a span; returns its id for endSpan()/attr(), or kNoSpan once
  /// the event cap is reached (the drop is counted; endSpan/attr tolerate
  /// kNoSpan).
  SpanId beginSpan(std::string name, std::string category);
  /// Close a span; returns its recorded duration in microseconds (0 for
  /// kNoSpan).
  std::int64_t endSpan(SpanId id);

  /// Attach an attribute to an open or closed span. No-op for kNoSpan.
  void attr(SpanId id, std::string key, std::string jsonValue);

  /// Maximum retained events; recording past it drops (and counts). The
  /// initial value comes from RAHTM_TRACE_CAP (default kDefaultEventCap).
  void setEventCap(std::size_t cap);
  /// Events dropped at the cap; surfaced by writeSummary().
  std::int64_t droppedEvents() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Visit every currently-open span under try_lock; returns false (having
  /// visited nothing) when the lock is contended. \p fn is a plain function
  /// pointer so the post-mortem signal path can use this without
  /// allocating.
  bool tryVisitOpenSpans(void (*fn)(void*, const TraceEvent&),
                         void* ctx) const;

  /// Record a zero-duration instant event (e.g. a MILP incumbent update).
  void instant(std::string name, std::string category,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Microseconds since tracer construction.
  std::int64_t nowUs() const;

  /// Copy of all events; spans still open are closed at "now" in the copy.
  std::vector<TraceEvent> snapshot() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}).
  void writeChromeTrace(std::ostream& os) const;

  /// Flat JSON summary: per span name {count, total_us, min_us, max_us}
  /// plus per instant name {count}.
  void writeSummary(std::ostream& os) const;

 private:
  std::uint32_t threadTagLocked();

  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TraceEvent> events_;
  std::vector<std::thread::id> threads_;  ///< dense thread-id mapping
  std::size_t eventCap_ = kDefaultEventCap;  ///< guarded by mu_
  std::atomic<std::int64_t> dropped_{0};
};

/// Process-global tracer; null (the default) disables tracing everywhere.
Tracer* tracer();
void setTracer(Tracer* t);

/// RAII span that tolerates a null tracer. Always measures elapsed time
/// (steady clock) so callers can derive statistics from the span whether or
/// not tracing is enabled; when a tracer is present the recorded duration
/// and seconds() agree exactly.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, const char* category)
      : tracer_(t), start_(std::chrono::steady_clock::now()) {
    if (tracer_ != nullptr) id_ = tracer_->beginSpan(name, category);
  }
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void attr(const char* key, const std::string& v) {
    if (tracer_ != nullptr) tracer_->attr(id_, key, jsonString(v));
  }
  void attr(const char* key, const char* v) { attr(key, std::string(v)); }
  void attr(const char* key, std::int64_t v) {
    if (tracer_ != nullptr) tracer_->attr(id_, key, jsonInt(v));
  }
  void attr(const char* key, std::int32_t v) {
    attr(key, static_cast<std::int64_t>(v));
  }
  void attr(const char* key, double v) {
    if (tracer_ != nullptr) tracer_->attr(id_, key, jsonDouble(v));
  }

  /// End the span now (idempotent). Returns the final elapsed seconds.
  double close() {
    if (!closed_) {
      closed_ = true;
      if (tracer_ != nullptr && id_ != kNoSpan) {
        // Use the tracer's recorded duration so span-derived statistics
        // match the trace file exactly.
        seconds_ = static_cast<double>(tracer_->endSpan(id_)) * 1e-6;
      } else {
        seconds_ = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
      }
    }
    return seconds_;
  }

  /// Elapsed seconds: running value while open, final value after close().
  double seconds() const {
    if (closed_) return seconds_;
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  Tracer* tracer_;
  SpanId id_ = kNoSpan;
  std::chrono::steady_clock::time_point start_;
  double seconds_ = 0;
  bool closed_ = false;
};

}  // namespace rahtm::obs
