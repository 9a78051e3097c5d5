#include "core/refine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/delta_eval.hpp"

namespace rahtm {

namespace {

/// Vertex count at which RefineCandidates::Auto switches from AllPairs to
/// Pruned. At 128 vertices (bench_scaling's 1024-rank/128-node point)
/// Pruned reaches the same final objective as AllPairs in ~60% of the time;
/// at 512 vertices the exhaustive n^2/2 scan costs minutes per mapping even
/// with delta-evaluated probes.
constexpr std::size_t kAutoPruneThreshold = 96;

/// Flat CSR adjacency of topology nodes (one step along any dimension).
struct NodeAdjacency {
  std::vector<std::size_t> offsets;
  std::vector<NodeId> nodes;

  static NodeAdjacency build(const Torus& topo) {
    NodeAdjacency adj;
    const auto n = static_cast<std::size_t>(topo.numNodes());
    adj.offsets.reserve(n + 1);
    adj.offsets.push_back(0);
    for (std::size_t node = 0; node < n; ++node) {
      const Coord c = topo.coordOf(static_cast<NodeId>(node));
      for (std::size_t dim = 0; dim < topo.ndims(); ++dim) {
        for (const Dir dir : {Dir::Plus, Dir::Minus}) {
          if (const auto nb = topo.neighbor(c, dim, dir)) {
            adj.nodes.push_back(topo.nodeId(*nb));
          }
        }
      }
      adj.offsets.push_back(adj.nodes.size());
    }
    return adj;
  }

  const NodeId* begin(std::size_t node) const {
    return nodes.data() + offsets[node];
  }
  const NodeId* end(std::size_t node) const {
    return nodes.data() + offsets[node + 1];
  }
};

/// Unique communication partners per vertex, ascending.
std::vector<std::vector<RankId>> buildVertexNeighbors(const CommGraph& g) {
  std::vector<std::vector<RankId>> nbrs(
      static_cast<std::size_t>(g.numRanks()));
  for (const Flow& f : g.flows()) {
    if (f.src == f.dst) continue;
    nbrs[static_cast<std::size_t>(f.src)].push_back(f.dst);
    nbrs[static_cast<std::size_t>(f.dst)].push_back(f.src);
  }
  for (auto& v : nbrs) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return nbrs;
}

/// Swap-search body (wrapped by refinePlacement for telemetry).
RefineResult refineImpl(const Torus& topo, const CommGraph& clusterGraph,
                        std::vector<NodeId>& nodeOfCluster,
                        const RefineConfig& cfg) {
  const auto n = static_cast<std::size_t>(clusterGraph.numRanks());
  RAHTM_REQUIRE(nodeOfCluster.size() >= n, "refinePlacement: placement small");

  RefineResult result;

  const bool hopBytes = cfg.objective == MapObjective::HopBytes;
  std::shared_ptr<const RouteTable> routes;
  std::shared_ptr<const FlowIncidence> incidence;
  if (!hopBytes) routes = routeTableFor(topo, cfg.artifacts);
  if (cfg.artifacts != nullptr) {
    incidence = cfg.artifacts->flowIncidence(clusterGraph);
  }
  DeltaPlacementEval eval(topo, clusterGraph, nodeOfCluster, cfg.objective,
                          routes, incidence);

  double curMax = eval.mcl();
  double curSq = eval.sumSquares();
  double curHb = eval.hopBytes();
  result.objectiveBefore = hopBytes ? curHb : curMax;

  // Acceptance mirrors the original sweeps: hop-bytes is a strict decrease;
  // MCL is lexicographic (max, sum of squares) — most swaps leave the
  // maximum untouched, and draining load variance keeps the search
  // progressing across the MCL plateau.
  const auto accepts = [&](const DeltaPlacementEval::Summary& cand) {
    if (hopBytes) return cand.hopBytes < curHb - 1e-12;
    return cand.mcl < curMax - 1e-9 ||
           (cand.mcl < curMax + 1e-9 && cand.sumSquares < curSq * (1 - 1e-6));
  };
  const auto adopt = [&](const DeltaPlacementEval::Summary& cand) {
    curMax = cand.mcl;
    curSq = cand.sumSquares;
    curHb = cand.hopBytes;
    ++result.swapsApplied;
  };

  const bool pruned =
      cfg.candidates == RefineCandidates::Pruned ||
      (cfg.candidates == RefineCandidates::Auto && n >= kAutoPruneThreshold);

  if (!pruned) {
    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
      ++result.passes;
      obs::FlightRecorder::instance().record(obs::FrEvent::RefinePass, pass,
                                             result.swapsApplied);
      bool improved = false;
      for (std::size_t a = 0; a < n; ++a) {
        obs::Heartbeats::instance().beat(obs::Pulse::RefineProbes,
                                         n - a - 1);
        for (std::size_t b = a + 1; b < n; ++b) {
          const auto& cand =
              eval.probeSwap(static_cast<RankId>(a), static_cast<RankId>(b));
          if (accepts(cand)) {
            eval.commit();
            adopt(cand);
            improved = true;
          }
        }
      }
      if (!improved) break;
      // Resynchronize incremental drift between passes (cheap relative to
      // the pass itself) so accept thresholds always compare fresh values.
      eval.rebuild();
      curMax = eval.mcl();
      curSq = eval.sumSquares();
      curHb = eval.hopBytes();
    }
  } else {
    // Neighbor-biased candidates with don't-look bits. A vertex is active
    // until a full scan of its candidates yields no accepted swap; an
    // accepted swap reactivates both endpoints and their communication
    // partners. Serial and index-ordered, hence deterministic.
    const NodeAdjacency nodeAdj = NodeAdjacency::build(topo);
    const auto vertexNbrs = buildVertexNeighbors(clusterGraph);
    std::vector<RankId> vertexAt(static_cast<std::size_t>(topo.numNodes()),
                                 kInvalidRank);
    for (std::size_t v = 0; v < n; ++v) {
      const NodeId node = eval.placement()[v];
      RAHTM_REQUIRE(vertexAt[static_cast<std::size_t>(node)] == kInvalidRank,
                    "refinePlacement: pruned mode requires distinct nodes");
      vertexAt[static_cast<std::size_t>(node)] = static_cast<RankId>(v);
    }
    std::vector<char> dontLook(n, 0);
    std::vector<RankId> cands;
    const auto addVertexOn = [&](NodeId node, RankId self) {
      const RankId r = vertexAt[static_cast<std::size_t>(node)];
      if (r != kInvalidRank && r != self) cands.push_back(r);
    };
    for (int pass = 0; pass < cfg.maxPasses; ++pass) {
      ++result.passes;
      obs::FlightRecorder::instance().record(obs::FrEvent::RefinePass, pass,
                                             result.swapsApplied);
      bool improved = false;
      for (std::size_t a = 0; a < n; ++a) {
        if (dontLook[a]) continue;
        const auto ra = static_cast<RankId>(a);
        cands.clear();
        for (const RankId g : vertexNbrs[a]) {
          // The partner itself, and whoever sits next to it.
          cands.push_back(g);
          const auto gNode =
              static_cast<std::size_t>(eval.placement()[static_cast<std::size_t>(g)]);
          for (auto it = nodeAdj.begin(gNode); it != nodeAdj.end(gNode); ++it) {
            addVertexOn(*it, ra);
          }
        }
        // Whoever sits next to a (local shuffles that free a's node).
        const auto aNode = static_cast<std::size_t>(eval.placement()[a]);
        for (auto it = nodeAdj.begin(aNode); it != nodeAdj.end(aNode); ++it) {
          addVertexOn(*it, ra);
        }
        std::sort(cands.begin(), cands.end());
        cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
        obs::Heartbeats::instance().beat(obs::Pulse::RefineProbes,
                                         cands.size());
        bool found = false;
        for (const RankId b : cands) {
          const auto& cand = eval.probeSwap(ra, b);
          if (!accepts(cand)) continue;
          const NodeId na = eval.placement()[a];
          const NodeId nb = eval.placement()[static_cast<std::size_t>(b)];
          eval.commit();
          adopt(cand);
          vertexAt[static_cast<std::size_t>(na)] = b;
          vertexAt[static_cast<std::size_t>(nb)] = ra;
          dontLook[static_cast<std::size_t>(b)] = 0;
          for (const RankId g : vertexNbrs[a]) {
            dontLook[static_cast<std::size_t>(g)] = 0;
          }
          for (const RankId g : vertexNbrs[static_cast<std::size_t>(b)]) {
            dontLook[static_cast<std::size_t>(g)] = 0;
          }
          found = true;
          improved = true;
          break;  // a stays active; rescan its candidates next pass
        }
        if (!found) dontLook[a] = 1;
      }
      if (!improved) break;
      eval.rebuild();
      curMax = eval.mcl();
      curSq = eval.sumSquares();
      curHb = eval.hopBytes();
    }
  }

  // Final dense resync: report the exact objective of the final placement
  // (bit-identical to a from-scratch placementLoads()/hopBytes()).
  eval.rebuild();
  result.objectiveAfter = hopBytes ? eval.hopBytes() : eval.mcl();
  result.sumSquaresAfter = eval.sumSquares();
  result.probes = eval.probes();
  result.denseSweeps = eval.denseSweeps();
  result.maskedSweeps = eval.maskedSweeps();
  result.channelVisits = eval.channelVisits();
  std::copy(eval.placement().begin(), eval.placement().begin() +
            static_cast<std::ptrdiff_t>(n), nodeOfCluster.begin());
  return result;
}

}  // namespace

RefineResult refinePlacement(const Torus& topo, const CommGraph& clusterGraph,
                             std::vector<NodeId>& nodeOfCluster,
                             const RefineConfig& cfg) {
  obs::ScopedSpan span(obs::tracer(), "rahtm.refine", "rahtm");
  span.attr("clusters", static_cast<std::int64_t>(clusterGraph.numRanks()));
  const RefineResult result = refineImpl(topo, clusterGraph, nodeOfCluster, cfg);
  span.attr("passes", static_cast<std::int64_t>(result.passes));
  span.attr("swaps", static_cast<std::int64_t>(result.swapsApplied));
  span.attr("probes", static_cast<std::int64_t>(result.probes));
  span.attr("objective_before", result.objectiveBefore);
  span.attr("objective_after", result.objectiveAfter);
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("rahtm.refine.passes").add(result.passes);
    reg->counter("rahtm.refine.swaps").add(result.swapsApplied);
    reg->counter("rahtm.refine.probes")
        .add(static_cast<std::int64_t>(result.probes));
    reg->counter("rahtm.refine.dense_sweeps")
        .add(static_cast<std::int64_t>(result.denseSweeps));
    reg->counter("rahtm.refine.masked_sweeps")
        .add(static_cast<std::int64_t>(result.maskedSweeps));
    reg->counter("rahtm.refine.channel_visits")
        .add(static_cast<std::int64_t>(result.channelVisits));
  }
  return result;
}

}  // namespace rahtm
