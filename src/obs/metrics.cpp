#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/process.hpp"

namespace rahtm::obs {

namespace {
std::atomic<MetricsRegistry*> g_metrics{nullptr};

/// Relaxed CAS-min/max on an atomic double.
void atomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
void atomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace

MetricsRegistry* metrics() { return g_metrics.load(std::memory_order_acquire); }
void setMetrics(MetricsRegistry* m) {
  g_metrics.store(m, std::memory_order_release);
}

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)) {
  RAHTM_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                        bounds_.end(),
                "Histogram: bounds must be strictly increasing");
  counts_ = std::make_unique<std::atomic<std::int64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::observe(double v) {
  // First bucket whose upper bound admits v (<=); past the end: overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  counts_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  atomicMin(min_, v);
  atomicMax(max_, v);
}

std::vector<std::int64_t> Histogram::bucketCounts() const {
  std::vector<std::int64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  const std::int64_t n = count();
  if (n == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const double lo = min();
  const double hi = max();
  const double target = q * static_cast<double>(n);
  const std::vector<std::int64_t> counts = bucketCounts();
  double cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c > 0 && cum + c >= target) {
      // Bucket i spans (bounds[i-1], bounds[i]]; the edge buckets borrow
      // the observed min/max so estimates never leave the data range.
      double bLo = i == 0 ? lo : bounds_[i - 1];
      double bHi = i < bounds_.size() ? bounds_[i] : hi;
      bLo = std::max(bLo, lo);
      bHi = std::min(bHi, hi);
      if (bHi < bLo) bHi = bLo;
      const double frac = (target - cum) / c;
      return bLo + (bHi - bLo) * frac;
    }
    cum += c;
  }
  return hi;
}

std::vector<double> expBuckets(double first, double factor, int count) {
  RAHTM_REQUIRE(first > 0 && factor > 1 && count > 0,
                "expBuckets: need first > 0, factor > 1, count > 0");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(count));
  double v = first;
  for (int i = 0; i < count; ++i) {
    out.push_back(v);
    v *= factor;
  }
  return out;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upperBounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upperBounds));
  return *slot;
}

const Counter* MetricsRegistry::findCounter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

std::vector<std::pair<std::string, const Counter*>>
MetricsRegistry::counterRefs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c.get());
  return out;
}

std::vector<std::pair<std::string, const Gauge*>> MetricsRegistry::gaugeRefs()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Gauge*>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g.get());
  return out;
}

void MetricsRegistry::writeJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\n" << jsonString(name) << ":" << c->value();
  }
  os << "\n},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\n" << jsonString(name) << ":" << jsonDouble(g->value());
  }
  os << "\n},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\n" << jsonString(name) << ":{\"count\":" << h->count()
       << ",\"sum\":" << jsonDouble(h->sum());
    if (h->count() > 0) {
      os << ",\"min\":" << jsonDouble(h->min())
         << ",\"max\":" << jsonDouble(h->max())
         << ",\"p50\":" << jsonDouble(h->quantile(0.50))
         << ",\"p95\":" << jsonDouble(h->quantile(0.95))
         << ",\"p99\":" << jsonDouble(h->quantile(0.99));
    }
    os << ",\"buckets\":[";
    const std::vector<std::int64_t> counts = h->bucketCounts();
    const std::vector<double>& bounds = h->bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i != 0) os << ",";
      os << "{\"le\":"
         << (i < bounds.size() ? jsonDouble(bounds[i]) : "\"inf\"")
         << ",\"count\":" << counts[i] << "}";
    }
    os << "]}";
  }
  // Process-level context so every snapshot is interpretable on its own
  // (how long the run took, how much memory it peaked at).
  os << "\n},\"process\":{\"wall_seconds\":" << jsonDouble(processWallSeconds())
     << ",\"peak_rss_bytes\":" << jsonInt(peakRssBytes()) << "}}\n";
}

}  // namespace rahtm::obs
