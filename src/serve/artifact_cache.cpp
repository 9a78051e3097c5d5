#include "serve/artifact_cache.hpp"

#include <iterator>
#include <utility>

#include "obs/mem.hpp"
#include "obs/metrics.hpp"

namespace rahtm::serve {

namespace {

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  // Mix each byte of v (FNV-1a, 64-bit offset basis handled by the caller).
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t graphHash(const CommGraph& g) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, static_cast<std::uint64_t>(g.numRanks()));
  for (const Flow& f : g.flows()) {
    h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.src)));
    h = fnv1a(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(f.dst)));
    h = fnv1a(h, static_cast<std::uint64_t>(f.bytes));
  }
  return h;
}

}  // namespace

std::string ArtifactCache::topologyKey(const Torus& topo) {
  std::string key;
  const Shape& shape = topo.shape();
  for (std::size_t d = 0; d < shape.size(); ++d) {
    if (d != 0) key.push_back('x');
    key += std::to_string(shape[d]);
  }
  key.push_back('/');
  for (std::size_t d = 0; d < shape.size(); ++d) {
    key.push_back(topo.wraps(d) ? 'w' : '-');
  }
  return key;
}

std::shared_ptr<const RouteTable> ArtifactCache::routeTable(const Torus& topo) {
  const std::string key = topologyKey(topo);
  std::promise<std::shared_ptr<const RouteTable>> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = routes_.find(key);
    if (it != routes_.end()) {
      ++stats_.routeHits;
      auto future = it->second.future;
      lock.unlock();
      noteMetrics();
      return future.get();
    }
    ++stats_.routeMisses;
    RouteEntry entry;
    entry.future = promise.get_future().share();
    routes_.emplace(key, std::move(entry));
  }
  noteMetrics();

  std::shared_ptr<const RouteTable> table;
  try {
    table = RouteTable::buildFull(topo);
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mu_);
    routes_.erase(key);
    throw;
  }
  promise.set_value(table);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // The bound forgets only completed entries, so this build's slot is
    // still here.
    RouteEntry& entry = routes_.at(key);
    entry.bytes = table->footprintBytes();
    totalBytes_ += entry.bytes;
    boundLocked();
  }
  noteMetrics();
  return table;
}

std::shared_ptr<const FlowIncidence> ArtifactCache::flowIncidence(
    const CommGraph& graph) {
  const std::uint64_t hash = graphHash(graph);
  std::promise<std::shared_ptr<const FlowIncidence>> promise;
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto& chain = incidences_[hash];
    for (IncidenceEntry& e : chain) {
      if (e.ranks == graph.numRanks() && e.flows == graph.flows()) {
        ++stats_.incidenceHits;
        auto future = e.future;
        lock.unlock();
        noteMetrics();
        return future.get();
      }
    }
    ++stats_.incidenceMisses;
    IncidenceEntry entry;
    entry.ranks = graph.numRanks();
    entry.flows = graph.flows();
    entry.future = promise.get_future().share();
    chain.push_back(std::move(entry));
  }
  noteMetrics();

  std::shared_ptr<const FlowIncidence> incidence;
  try {
    incidence =
        std::make_shared<const FlowIncidence>(buildFlowIncidence(graph));
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incidences_.find(hash);
    std::erase_if(it->second, [&](const IncidenceEntry& e) {
      return e.ranks == graph.numRanks() && e.flows == graph.flows();
    });
    if (it->second.empty()) incidences_.erase(it);
    throw;
  }
  promise.set_value(incidence);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // As for routes: this build's entry is still in its chain.
    for (IncidenceEntry& e : incidences_.at(hash)) {
      if (e.ranks == graph.numRanks() && e.flows == graph.flows()) {
        e.bytes = incidence->footprintBytes() +
                  static_cast<std::int64_t>(e.flows.capacity() * sizeof(Flow));
        totalBytes_ += e.bytes;
        break;
      }
    }
    boundLocked();
  }
  noteMetrics();
  return incidence;
}

void ArtifactCache::boundLocked() {
  // Cached artifacts stay charged to their memory accounts. Under an armed
  // budget the cache also forgets once the accounted total is past half of
  // it, so entries no request reuses never leave a request too little of
  // the budget to build in.
  const obs::MemRegistry& mem = obs::MemRegistry::instance();
  const std::int64_t budget = mem.budgetBytes();
  const bool pressed = budget > 0 && mem.totalCurrentBytes() > budget / 2;
  if (totalBytes_ <= maxBytes_ && !pressed) return;
  // A build in flight (bytes == 0) keeps its slot: its builder publishes
  // into it and its waiters share it.
  const auto completed = [](const auto& e) { return e.bytes > 0; };
  stats_.evictions += static_cast<std::int64_t>(std::erase_if(
      routes_, [&](const auto& kv) { return completed(kv.second); }));
  for (auto it = incidences_.begin(); it != incidences_.end();) {
    stats_.evictions +=
        static_cast<std::int64_t>(std::erase_if(it->second, completed));
    it = it->second.empty() ? incidences_.erase(it) : std::next(it);
  }
  totalBytes_ = 0;
}

ArtifactCacheStats ArtifactCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ArtifactCacheStats s = stats_;
  s.bytes = totalBytes_;
  return s;
}

void ArtifactCache::noteMetrics() const {
  obs::MetricsRegistry* reg = obs::metrics();
  if (reg == nullptr) return;
  const ArtifactCacheStats s = stats();
  // set() rather than add(): the registry mirrors the cache's monotonic
  // totals, so concurrent mirrors are idempotent.
  reg->gauge("rahtm.serve.cache.route_hits")
      .set(static_cast<double>(s.routeHits));
  reg->gauge("rahtm.serve.cache.route_misses")
      .set(static_cast<double>(s.routeMisses));
  reg->gauge("rahtm.serve.cache.incidence_hits")
      .set(static_cast<double>(s.incidenceHits));
  reg->gauge("rahtm.serve.cache.incidence_misses")
      .set(static_cast<double>(s.incidenceMisses));
  reg->gauge("rahtm.serve.cache.evictions")
      .set(static_cast<double>(s.evictions));
  reg->gauge("rahtm.serve.cache.bytes").set(static_cast<double>(s.bytes));
}

}  // namespace rahtm::serve
