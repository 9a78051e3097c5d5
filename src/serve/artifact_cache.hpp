#pragma once
/// \file artifact_cache.hpp
/// Cross-request cache of the solver's immutable per-topology artifacts.
///
/// The solver's derived per-topology state — `RouteTable`s and CSR
/// `FlowIncidence`s — is immutable once built, so it is safe to share
/// read-only across threads. This cache implements
/// `ArtifactSource` on top of that discipline: concurrent mapping requests
/// for the same topology (or the same communication graph) get the same
/// `shared_ptr<const ...>` instead of rebuilding, and the first request for
/// a key builds exactly once (later arrivals block on a shared future).
///
/// Keying:
///  * route tables — the canonical topology fingerprint (shape + per-dim
///    wrap flags, e.g. "4x4x4x2/wwww"), which is exactly the state a
///    `RouteTable` is a function of;
///  * flow incidences — a 64-bit FNV-1a content hash of (numRanks, flows),
///    with the flow vector stored per entry and compared exactly on lookup,
///    so hash collisions chain instead of aliasing.
///
/// Bound: keys come from request content, so the cache holds at most
/// `maxBytes` of completed artifacts. When a completed build takes the
/// tally past it, the cache *forgets* every completed entry (live
/// `shared_ptr` holders keep their objects alive; the cache just stops
/// handing them out). A build still in flight keeps its slot, so its
/// callers still share one build. Cached objects self-account under the
/// existing route_table / flow_incidence accounts, which count toward the
/// memory budget, so under an armed budget a completed build also forgets
/// every completed entry once the accounted total is past half of it:
/// cached entries never leave a request too little budget to be served.
///
/// Observability: hit/miss/eviction counters are mirrored into the metrics
/// registry as `rahtm.serve.cache.*` when one is installed.

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/comm_graph.hpp"
#include "routing/delta_eval.hpp"
#include "topology/torus.hpp"

namespace rahtm::serve {

/// Default bound over the cached objects' accounted footprints (route
/// tables + incidence CSRs + the stored verification flow vectors).
inline constexpr std::int64_t kArtifactCacheMaxBytes = 256ll * 1024 * 1024;

/// Monotonic counters plus the current resident footprint.
struct ArtifactCacheStats {
  std::int64_t routeHits = 0;
  std::int64_t routeMisses = 0;
  std::int64_t incidenceHits = 0;
  std::int64_t incidenceMisses = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;
};

class ArtifactCache final : public ArtifactSource {
 public:
  explicit ArtifactCache(std::int64_t maxBytes = kArtifactCacheMaxBytes)
      : maxBytes_(maxBytes) {}
  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  /// ArtifactSource: shared route table for \p topo. Blocks while
  /// another thread builds the same key; builds (once) on a cold key.
  std::shared_ptr<const RouteTable> routeTable(const Torus& topo) override;

  /// ArtifactSource: shared flow incidence of \p graph (exact content
  /// match; hash collisions are resolved by comparing the flows).
  std::shared_ptr<const FlowIncidence> flowIncidence(
      const CommGraph& graph) override;

  /// Canonical topology fingerprint, e.g. "4x4x4x2/wwww" ('w' wrap,
  /// '-' no wrap per dimension).
  static std::string topologyKey(const Torus& topo);

  ArtifactCacheStats stats() const;

 private:
  struct RouteEntry {
    std::shared_future<std::shared_ptr<const RouteTable>> future;
    std::int64_t bytes = 0;  ///< 0 until the build completes
  };
  struct IncidenceEntry {
    RankId ranks = 0;
    std::vector<Flow> flows;  ///< exact key (collision verification)
    std::shared_future<std::shared_ptr<const FlowIncidence>> future;
    std::int64_t bytes = 0;
  };

  /// Past maxBytes_, or with the accounted total past half the armed
  /// memory budget, forget every completed entry. Caller holds mu_.
  void boundLocked();
  void noteMetrics() const;

  const std::int64_t maxBytes_;

  mutable std::mutex mu_;
  std::int64_t totalBytes_ = 0;
  std::unordered_map<std::string, RouteEntry> routes_;
  /// Content-hash chains: every entry under a hash is compared exactly.
  std::unordered_map<std::uint64_t, std::vector<IncidenceEntry>> incidences_;
  ArtifactCacheStats stats_;
};

}  // namespace rahtm::serve
