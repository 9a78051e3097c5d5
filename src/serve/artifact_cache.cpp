#include "serve/artifact_cache.hpp"

#include <algorithm>
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

ArtifactCache::ArtifactCache(ArtifactCacheConfig cfg) : cfg_(cfg) {
  if (cfg_.registerDegrade) {
    degradeHandle_ = obs::MemRegistry::instance().registerDegradeCallback(
        "serve.artifact_cache", [this] { return dropAll(); });
  }
}

ArtifactCache::~ArtifactCache() {
  if (degradeHandle_ >= 0) {
    obs::MemRegistry::instance().unregisterDegradeCallback(degradeHandle_);
  }
}

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
    ++tick_;
    auto it = routes_.find(key);
    if (it != routes_.end()) {
      ++stats_.routeHits;
      it->second.lastUse = tick_;
      auto future = it->second.future;
      lock.unlock();
      noteMetrics();
      return future.get();
    }
    ++stats_.routeMisses;
    RouteEntry entry;
    entry.future = promise.get_future().share();
    entry.lastUse = tick_;
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
    // The entry may have been dropped (degrade) while we built; only a
    // still-present entry joins the LRU accounting.
    auto it = routes_.find(key);
    if (it != routes_.end()) {
      it->second.bytes = table->footprintBytes();
      totalBytes_ += it->second.bytes;
      evictLocked();
    }
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
    ++tick_;
    auto& chain = incidences_[hash];
    for (IncidenceEntry& e : chain) {
      if (e.ranks == graph.numRanks() && e.flows == graph.flows()) {
        ++stats_.incidenceHits;
        e.lastUse = tick_;
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
    entry.lastUse = tick_;
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
    if (it != incidences_.end()) {
      auto& chain = it->second;
      chain.erase(std::remove_if(chain.begin(), chain.end(),
                                 [&](const IncidenceEntry& e) {
                                   return e.ranks == graph.numRanks() &&
                                          e.flows == graph.flows();
                                 }),
                  chain.end());
      if (chain.empty()) incidences_.erase(it);
    }
    throw;
  }
  promise.set_value(incidence);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = incidences_.find(hash);
    if (it != incidences_.end()) {
      for (IncidenceEntry& e : it->second) {
        if (e.ranks == graph.numRanks() && e.flows == graph.flows()) {
          e.bytes = incidence->footprintBytes() +
                    static_cast<std::int64_t>(e.flows.capacity() *
                                              sizeof(Flow));
          totalBytes_ += e.bytes;
          break;
        }
      }
      evictLocked();
    }
  }
  noteMetrics();
  return incidence;
}

void ArtifactCache::evictLocked() {
  while (totalBytes_ > cfg_.maxBytes) {
    // Least-recently-used *completed* entry across both tables (a pending
    // build has bytes == 0 and is never evicted — its builder still needs
    // the slot to publish into).
    const std::string* routeKey = nullptr;
    std::uint64_t incHash = 0;
    std::size_t incIdx = 0;
    bool isRoute = false, found = false;
    std::uint64_t oldest = 0;
    for (const auto& [key, e] : routes_) {
      if (e.bytes <= 0) continue;
      if (!found || e.lastUse < oldest) {
        found = true;
        isRoute = true;
        oldest = e.lastUse;
        routeKey = &key;
      }
    }
    for (const auto& [hash, chain] : incidences_) {
      for (std::size_t i = 0; i < chain.size(); ++i) {
        const IncidenceEntry& e = chain[i];
        if (e.bytes <= 0) continue;
        if (!found || e.lastUse < oldest) {
          found = true;
          isRoute = false;
          oldest = e.lastUse;
          incHash = hash;
          incIdx = i;
        }
      }
    }
    if (!found) break;
    if (isRoute) {
      auto it = routes_.find(*routeKey);
      totalBytes_ -= it->second.bytes;
      routes_.erase(it);
    } else {
      auto it = incidences_.find(incHash);
      auto& chain = it->second;
      totalBytes_ -= chain[incIdx].bytes;
      chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(incIdx));
      if (chain.empty()) incidences_.erase(it);
    }
    ++stats_.evictions;
  }
}

std::int64_t ArtifactCache::dropAll() {
  std::int64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    released = totalBytes_;
    // Pending builds are dropped from the index too — their builders
    // tolerate the missing entry and the callers still get their futures.
    routes_.clear();
    incidences_.clear();
    totalBytes_ = 0;
  }
  noteMetrics();
  return released;
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
