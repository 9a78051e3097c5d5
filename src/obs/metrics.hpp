#pragma once
/// \file metrics.hpp
/// Lock-free-ish metrics registry: named counters, gauges and fixed-bucket
/// histograms backed by std::atomic, with a JSON snapshot.
///
/// Recording (`Counter::add`, `Histogram::observe`, ...) never takes a
/// lock — hot paths like the simulator's occupancy sampling and the
/// simplex pivot accounting only touch relaxed atomics. The registry's
/// name lookup *does* take a mutex, so instrumentation sites either run at
/// coarse granularity (one lookup per solve) or cache the returned
/// reference up front (references are stable for the registry's lifetime).
///
/// Like tracing, metrics are opt-in: the process-global registry pointer
/// defaults to null and every instrumentation site checks it first, so a
/// run without --metrics-out pays a single predictable branch.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rahtm::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-value (set) or accumulating (add) floating-point metric.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Fixed-bucket histogram: counts per bucket (upper-bound inclusive, plus
/// an implicit overflow bucket), running sum/count and min/max.
class Histogram {
 public:
  /// \p upperBounds must be strictly increasing.
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double v);

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const { return min_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; the last entry is the overflow bucket.
  std::vector<std::int64_t> bucketCounts() const;

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket containing the target rank, clamped to the observed [min, max].
  /// 0 when the histogram is empty. Snapshots embed p50/p95/p99 so summary
  /// JSON is directly plottable without post-processing bucket counts.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::int64_t>[]> counts_;  // bounds_.size() + 1
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Exponential bucket bounds: first, first*factor, ... (count entries).
std::vector<double> expBuckets(double first, double factor, int count);

class MetricsRegistry {
 public:
  /// Find-or-create by name; returned references are stable.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// \p upperBounds is used only on first creation of \p name.
  Histogram& histogram(const std::string& name,
                       std::vector<double> upperBounds);

  /// Lookup without creation (mainly for tests); null when absent.
  const Counter* findCounter(const std::string& name) const;

  /// Stable (name, pointer) lists of the current counters/gauges, captured
  /// under the registry lock. The post-mortem writer (obs/postmortem.cpp)
  /// takes these in normal context so a signal handler can later read the
  /// atomics without touching the registry mutex.
  std::vector<std::pair<std::string, const Counter*>> counterRefs() const;
  std::vector<std::pair<std::string, const Gauge*>> gaugeRefs() const;

  /// Snapshot everything as JSON:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,min,
  ///  max,buckets:[{le,count},...]}}}.
  void writeJson(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-global registry; null (the default) disables metrics everywhere.
MetricsRegistry* metrics();
void setMetrics(MetricsRegistry* m);

}  // namespace rahtm::obs
