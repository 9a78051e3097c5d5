#pragma once
/// \file service.hpp
/// The mapping-as-a-service library API: one `MapRequest` (communication
/// graph or named workload + topology spec + solver options) in, one
/// `MapResponse` (mapping + quality metrics + stats + ledger fragment) out.
///
/// This is the extraction of `tools/rahtm_map.cpp`'s orchestration into a
/// call with no globals: the CLI is a thin wrapper over `MapService`, and
/// the `rahtm_serve` daemon runs many of these calls concurrently through
/// the `Scheduler`. A `MapService` constructed without an `ArtifactCache`
/// behaves exactly like the historical one-shot tool (every solve builds
/// its own artifacts); with a cache, per-topology route tables and flow
/// incidences are shared across requests — with bit-identical mappings, as
/// the shared artifacts are content-identical to locally built ones.
///
/// Scoring: a response's MCL is read from the target topology's route
/// table (addPlacementRoutes, the kernel the solver's own evaluation
/// uses), which performs the minimal-path enumeration's additions channel
/// by channel, so it equals placementMcl() bit for bit without
/// re-enumerating any path. With a cache the table is built once per
/// topology; without one, once per call.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rahtm.hpp"
#include "graph/comm_graph.hpp"
#include "mapping/mapping.hpp"
#include "obs/report.hpp"
#include "serve/artifact_cache.hpp"
#include "simnet/simulator.hpp"
#include "topology/torus.hpp"

namespace rahtm::serve {

/// One mapping request. Either `benchmark` names a synthetic NAS workload
/// (BT/SP/CG, sized to machine × concentration) or `hasGraph` carries an
/// explicit communication matrix (the profile path).
struct MapRequest {
  std::string id;           ///< caller-chosen correlation id
  Shape machine;            ///< torus shape, e.g. {4,4,4,2}
  int concentration = 1;    ///< ranks per node
  std::string benchmark = "CG";
  std::int64_t messageBytes = 4096;  ///< NAS workload message size
  bool hasGraph = false;
  CommGraph graph;          ///< explicit input when hasGraph
  Shape grid;               ///< logical rank grid for explicit input
  std::string mapper = "rahtm";
  int beamWidth = 64;
  bool enableMerge = true;
  bool finalRefinement = true;
  int leafMilpVerts = 8;
  int threads = 1;          ///< solver threads (mapping is bit-identical)
  std::uint64_t seed = 0x5eed;  ///< annealing seed (subproblem portfolio)
};

/// The resolved input of a request: the graph to map, the logical grid the
/// clustering tile-search uses, and the per-stage structure the simulator
/// consumes (named workloads only). Split from handling so the CLI can
/// build it once and reuse the stages for post-mapping simulation.
struct RequestInput {
  CommGraph graph;
  Shape grid;
  std::vector<simnet::Phase> simStages;
};

struct MapResponse {
  std::string id;
  bool ok = false;
  std::string error;        ///< set when !ok
  std::string benchmark;    ///< request benchmark, or "profile" for graphs
  std::string mapper;       ///< request mapper name
  std::string machine;      ///< Torus::describe() of the target
  std::int64_t ranks = 0;
  std::int64_t flows = 0;
  Mapping mapping;
  double mcl = 0;           ///< placementMcl (MAR model), bit for bit
  double hopBytes = 0;
  bool hasRahtmStats = false;
  RahtmStats stats;         ///< rahtm mapper only
  double solveSeconds = 0;
  double queueSeconds = 0;  ///< filled by the Scheduler
  /// Artifact-cache totals at completion (monotonic global snapshot; zeros
  /// when the service runs uncached).
  ArtifactCacheStats cache;
};

/// The request → response call. Thread-safe: handle() may run concurrently
/// from many threads over one service instance (each call builds its own
/// mapper; the cache is internally synchronized).
class MapService {
 public:
  /// \p cache: optional shared artifact cache (non-owning; must outlive
  /// the service). Null = every solve builds its own artifacts.
  explicit MapService(ArtifactCache* cache = nullptr) : cache_(cache) {}

  /// Resolve the request's input (named workload or explicit graph).
  /// Throws rahtm::Error on inconsistent sizes.
  RequestInput buildInput(const MapRequest& req) const;

  /// The mapper-selection ladder of the offline tool, parameterized by the
  /// request. Throws rahtm::Error on an unknown mapper name.
  std::unique_ptr<TaskMapper> makeMapper(const MapRequest& req,
                                         const Shape& grid) const;

  /// buildInput + handleWithInput.
  MapResponse handle(const MapRequest& req);

  /// Solve \p req over a pre-resolved input. Never throws: failures come
  /// back as ok == false with the error message.
  MapResponse handleWithInput(const MapRequest& req,
                              const RequestInput& input);

  ArtifactCache* cache() const { return cache_; }

 private:
  ArtifactCache* cache_;
};

/// The response's `rahtm.bench.report/v1`-style ledger fragment: one
/// (benchmark, mapper) record carrying mcl / hop_bytes / queue_sec /
/// solve_sec. Embedded in the wire response and reusable by suites.
obs::RunRecord responseRecord(const MapResponse& resp);

}  // namespace rahtm::serve
