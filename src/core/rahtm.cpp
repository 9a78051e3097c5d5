#include "core/rahtm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "exec/thread_pool.hpp"
#include "graph/stats.hpp"
#include "obs/heartbeat.hpp"
#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/delta_eval.hpp"
#include "routing/oblivious.hpp"

namespace rahtm {

namespace {

/// Restrict \p g to the vertex subset \p verts, relabeling vertex verts[i]
/// to local id i. Flows with an endpoint outside the subset are dropped.
CommGraph restrictGraph(const CommGraph& g, const std::vector<ClusterId>& verts) {
  std::vector<RankId> local(static_cast<std::size_t>(g.numRanks()), -1);
  for (std::size_t i = 0; i < verts.size(); ++i) {
    local[static_cast<std::size_t>(verts[i])] = static_cast<RankId>(i);
  }
  CommGraph out(static_cast<RankId>(verts.size()));
  for (const Flow& f : g.flows()) {
    const RankId a = local[static_cast<std::size_t>(f.src)];
    const RankId b = local[static_cast<std::size_t>(f.dst)];
    if (a >= 0 && b >= 0) out.addFlow(a, b, f.bytes);
  }
  return out;
}

/// Internal pipeline state shared by the phases.
struct Pipeline {
  const RahtmConfig& cfg;
  const Torus& topo;
  MachineHierarchy hierarchy;
  ClusterTree tree;
  int L;  ///< hierarchy depth

  /// parentOf[k][c] : depth-k cluster c -> its parent at depth k-1 (k >= 1).
  std::vector<const std::vector<ClusterId>*> parentOf;
  /// childrenOf[k][p] : depth-k cluster p -> its depth-(k+1) children.
  std::vector<std::vector<std::vector<ClusterId>>> childrenOf;
  /// graphs[k] : contracted communication graph over depth-k clusters.
  std::vector<const CommGraph*> graphs;
  /// pinSlot[k][c] : phase-2 slot (coord in the parent's child grid) of
  /// depth-k cluster c (k >= 1).
  std::vector<std::vector<Coord>> pinSlot;

  RahtmStats* stats;

  Pipeline(const RahtmConfig& config, const CommGraph& graph,
           const Torus& topology, int concentration, const Shape& rankGrid,
           RahtmStats* statsOut)
      : cfg(config), topo(topology), hierarchy(topology), stats(statsOut) {
    L = hierarchy.depth();
    {
      obs::ScopedSpan span(obs::tracer(), "rahtm.phase.cluster", "rahtm");
      obs::PhaseScope phase("rahtm.phase.cluster");
      tree = buildClusterTree(graph, rankGrid, concentration,
                              hierarchy.childCountsDeepestFirst(),
                              config.tileSearch);
      span.attr("levels", static_cast<std::int64_t>(tree.levels.size()));
      stats->clusterSeconds = span.close();
    }
    stats->intraNodeVolume = tree.concentration.intraVolume;
    stats->interNodeVolume = tree.concentration.interVolume;

    // Index parents / children / graphs by depth.
    parentOf.assign(static_cast<std::size_t>(L) + 1, nullptr);
    graphs.assign(static_cast<std::size_t>(L) + 1, nullptr);
    graphs[static_cast<std::size_t>(L)] = &tree.concentration.coarseGraph;
    for (int k = 1; k <= L; ++k) {
      // tree.levels[i] maps depth (L - i) -> depth (L - i - 1).
      const TilingResult& level = tree.levels[static_cast<std::size_t>(L - k)];
      parentOf[static_cast<std::size_t>(k)] = &level.clusterOf;
      graphs[static_cast<std::size_t>(k - 1)] = &level.coarseGraph;
    }
    childrenOf.resize(static_cast<std::size_t>(L));
    for (int k = 0; k < L; ++k) {
      const auto& pmap = *parentOf[static_cast<std::size_t>(k + 1)];
      childrenOf[static_cast<std::size_t>(k)].resize(
          static_cast<std::size_t>(graphs[static_cast<std::size_t>(k)]->numRanks()));
      for (std::size_t c = 0; c < pmap.size(); ++c) {
        childrenOf[static_cast<std::size_t>(k)][static_cast<std::size_t>(pmap[c])]
            .push_back(static_cast<ClusterId>(c));
      }
    }
    pinSlot.resize(static_cast<std::size_t>(L) + 1);
    for (int k = 1; k <= L; ++k) {
      pinSlot[static_cast<std::size_t>(k)].resize(
          static_cast<std::size_t>(graphs[static_cast<std::size_t>(k)]->numRanks()),
          Coord(topo.ndims(), 0));
    }
  }

  /// Phase 2: top-down pseudo-pinning (§III-C), executed in level-order
  /// waves. Every sibling group at a depth is an independent subproblem, so
  /// a whole level's solves are submitted to the pool at once; solutions
  /// land in index-addressed slots and all stats/pin bookkeeping below runs
  /// serially in wave order, keeping the mapping bit-identical for any
  /// thread count. (A wave of size one — always the root — runs inline,
  /// which leaves the pool free for that subproblem's annealing restarts.)
  void pin(exec::ThreadPool& pool) {
    std::vector<ClusterId> wave{0};  // depth-k clusters awaiting expansion
    for (int k = 0; k < L && !wave.empty(); ++k) {
      const auto& kids = childrenOf[static_cast<std::size_t>(k)];
      const Torus cube = hierarchy.clusterTopology(k);
      for (const ClusterId x : wave) {
        RAHTM_REQUIRE(
            static_cast<std::int64_t>(
                kids[static_cast<std::size_t>(x)].size()) == cube.numNodes(),
            "RAHTM pin: child count != cube size");
      }
      std::vector<SubproblemSolution> sols(wave.size());
      pool.parallelFor(wave.size(), [&](std::size_t i) {
        const auto& children = kids[static_cast<std::size_t>(wave[i])];
        const CommGraph sibling =
            restrictGraph(*graphs[static_cast<std::size_t>(k + 1)], children);
        sols[i] = solveSubproblem(sibling, cube, cfg.subproblem, &pool);
      });
      std::vector<ClusterId> next;
      for (std::size_t i = 0; i < wave.size(); ++i) {
        ++stats->subproblemsSolved;
        ++stats->solverMethodCounts[sols[i].method];
        const auto& children = kids[static_cast<std::size_t>(wave[i])];
        for (std::size_t j = 0; j < children.size(); ++j) {
          pinSlot[static_cast<std::size_t>(k + 1)]
                 [static_cast<std::size_t>(children[j])] =
                     cube.coordOf(sols[i].vertexOf[j]);
          if (k + 1 < L) next.push_back(children[j]);
        }
      }
      wave = std::move(next);
    }
  }

  /// Local topology of one block at depth \p k: the machine itself at the
  /// root; a mesh of the block shape below.
  Torus regionTopology(int k) const {
    const Shape& shape = hierarchy.blockShape(k);
    SmallVec<std::uint8_t, kMaxDims> wrap(shape.size(), 0);
    if (k == 0) {
      for (std::size_t d = 0; d < shape.size(); ++d) {
        wrap[d] = topo.wraps(d) ? 1 : 0;
      }
    }
    return Torus::mixed(shape, wrap);
  }

  struct BlockMap {
    std::vector<ClusterId> clusters;  ///< node-level cluster ids
    std::vector<Coord> pos;           ///< local coords within the block
    std::vector<Coord> pinPos;        ///< pin-only layout (no merge choices)
  };

  /// Phase 3: bottom-up merge (§III-D).
  BlockMap mergeUp(int k, ClusterId x, double* rootObjective) {
    if (k == L) {
      BlockMap leaf;
      leaf.clusters.push_back(x);
      leaf.pos.push_back(Coord(topo.ndims(), 0));
      leaf.pinPos.push_back(Coord(topo.ndims(), 0));
      return leaf;
    }
    const auto& children = childrenOf[static_cast<std::size_t>(k)]
                                     [static_cast<std::size_t>(x)];
    std::vector<MergeChild> mergeChildrenIn;
    mergeChildrenIn.reserve(children.size());
    for (const ClusterId child : children) {
      BlockMap bm = mergeUp(k + 1, child, nullptr);
      MergeChild mc;
      mc.clusters = std::move(bm.clusters);
      mc.localPos = std::move(bm.pos);
      mc.pinPos = std::move(bm.pinPos);
      mc.slot = pinSlot[static_cast<std::size_t>(k + 1)]
                       [static_cast<std::size_t>(child)];
      mergeChildrenIn.push_back(std::move(mc));
    }
    MergeConfig mcfg = cfg.merge;
    if (!cfg.enableMerge) {
      mcfg.beamWidth = 1;
      mcfg.maxOrientations = 1;  // identity only: phase-2 pins are final
      mcfg.maxRepositionSlots = 0;
    }
    const Torus region = regionTopology(k);
    const MergeResult res = mergeChildren(
        region, hierarchy.blockShape(k + 1), hierarchy.childGrid(k),
        mergeChildrenIn, *graphs[static_cast<std::size_t>(L)], mcfg);
    if (rootObjective != nullptr) *rootObjective = res.objective;

    BlockMap out;
    out.clusters = res.clustersInRegion;
    out.pos.reserve(res.localNode.size());
    for (const NodeId n : res.localNode) {
      out.pos.push_back(region.coordOf(n));
    }
    out.pinPos.reserve(res.pinLocalNode.size());
    for (const NodeId n : res.pinLocalNode) {
      out.pinPos.push_back(region.coordOf(n));
    }
    return out;
  }
};

/// Evaluate the incumbent node-cluster placement after a phase and record
/// it everywhere the attribution is consumed: RahtmStats::phaseQuality, a
/// "rahtm.quality" instant trace event, and the
/// "rahtm.quality.<phase>.{mcl,hop_bytes}" gauges. A trace therefore shows
/// *which phase* bought each MCL / hop-bytes improvement.
void recordPhaseQuality(RahtmStats& stats, const Torus& topo,
                        const CommGraph& clusterGraph,
                        const std::vector<NodeId>& nodeOfCluster,
                        const char* phase) {
  PhaseQuality q;
  q.phase = phase;
  q.mcl = placementMcl(topo, clusterGraph, nodeOfCluster);
  q.hopBytes = hopBytes(clusterGraph, topo, nodeOfCluster);
  // Accounted-memory high-water mark since the previous phase boundary;
  // the reset arms the next phase's measurement.
  obs::MemRegistry& mem = obs::MemRegistry::instance();
  q.memPeakBytes = mem.phasePeakBytes();
  mem.resetPhasePeak();
  stats.phaseQuality.push_back(q);
  if (obs::Tracer* t = obs::tracer()) {
    t->instant("rahtm.quality", "rahtm",
               {{"phase", obs::jsonString(phase)},
                {"mcl", obs::jsonDouble(q.mcl)},
                {"hop_bytes", obs::jsonDouble(q.hopBytes)},
                {"mem_peak_bytes",
                 obs::jsonInt(static_cast<std::int64_t>(q.memPeakBytes))}});
  }
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    const std::string prefix = std::string("rahtm.quality.") + phase;
    reg->gauge(prefix + ".mcl").set(q.mcl);
    reg->gauge(prefix + ".hop_bytes").set(q.hopBytes);
    reg->gauge(std::string("rahtm.mem.") + phase + ".peak_bytes")
        .set(static_cast<double>(q.memPeakBytes));
  }
}

}  // namespace

RahtmMapper::RahtmMapper(RahtmConfig config) : config_(std::move(config)) {}

Mapping RahtmMapper::map(const CommGraph& graph, const Torus& topo,
                         int concentration) {
  // Every phase runs under a tracer span; the RahtmStats timings are the
  // spans' durations, so the §V-B accounting and a captured trace agree
  // exactly. With tracing disabled the spans degrade to bare stopwatches.
  obs::ScopedSpan total(obs::tracer(), "rahtm.map", "rahtm");
  obs::PhaseScope totalPhase("rahtm.map");
  stats_ = RahtmStats{};
  // Arm per-phase memory attribution: each recordPhaseQuality() call reads
  // the high-water mark since the previous boundary and re-arms.
  obs::MemRegistry::instance().resetPhasePeak();
  const RankId ranks = graph.numRanks();
  total.attr("ranks", static_cast<std::int64_t>(ranks));
  total.attr("machine", topo.describe());
  total.attr("concentration", static_cast<std::int64_t>(concentration));
  RAHTM_REQUIRE(ranks == topo.numNodes() * concentration,
                "RahtmMapper: ranks != nodes * concentration");

  Shape rankGrid = config_.logicalGrid;
  if (rankGrid.empty()) {
    rankGrid = Shape{static_cast<std::int32_t>(ranks)};
  } else {
    std::int64_t vol = 1;
    for (std::size_t d = 0; d < rankGrid.size(); ++d) vol *= rankGrid[d];
    RAHTM_REQUIRE(vol == ranks, "RahtmMapper: logical grid volume != ranks");
  }

  exec::ThreadPool pool(config_.numThreads);
  total.attr("threads", static_cast<std::int64_t>(pool.numThreads()));

  // Propagate the shared-artifact provider into every phase config before
  // the pipeline snapshots them.
  config_.subproblem.artifacts = config_.artifacts;
  config_.merge.artifacts = config_.artifacts;
  config_.refine.artifacts = config_.artifacts;

  Pipeline pipe(config_, graph, topo, concentration, rankGrid, &stats_);

  // Quality attribution baseline: the canonical (identity) cluster
  // placement right after clustering, before any placement decision.
  const CommGraph& clusterGraph = pipe.tree.concentration.coarseGraph;
  {
    std::vector<NodeId> canonical(
        static_cast<std::size_t>(clusterGraph.numRanks()));
    for (std::size_t i = 0; i < canonical.size(); ++i) {
      canonical[i] = static_cast<NodeId>(i);
    }
    recordPhaseQuality(stats_, topo, clusterGraph, canonical, "cluster");
  }

  {
    obs::ScopedSpan span(obs::tracer(), "rahtm.phase.pin", "rahtm");
    obs::PhaseScope phase("rahtm.phase.pin");
    pipe.pin(pool);
    span.attr("subproblems", static_cast<std::int64_t>(stats_.subproblemsSolved));
    stats_.pinSeconds = span.close();
  }

  double rootObjective = 0;
  Pipeline::BlockMap root;
  {
    obs::ScopedSpan span(obs::tracer(), "rahtm.phase.merge", "rahtm");
    obs::PhaseScope phase("rahtm.phase.merge");
    root = pipe.mergeUp(0, 0, &rootObjective);
    span.attr("objective", rootObjective);
    stats_.mergeSeconds = span.close();
  }
  stats_.rootObjective = rootObjective;

  // Node-level cluster -> machine node.
  std::vector<NodeId> nodeOfCluster(
      static_cast<std::size_t>(clusterGraph.numRanks()), kInvalidNode);
  for (std::size_t i = 0; i < root.clusters.size(); ++i) {
    nodeOfCluster[static_cast<std::size_t>(root.clusters[i])] =
        topo.nodeId(root.pos[i]);
  }

  // Attribute pin and merge: mergeUp carries the pin-only layout alongside
  // the merged one, so both incumbents are known here.
  {
    std::vector<NodeId> pinNode(nodeOfCluster.size(), kInvalidNode);
    for (std::size_t i = 0; i < root.clusters.size(); ++i) {
      pinNode[static_cast<std::size_t>(root.clusters[i])] =
          topo.nodeId(root.pinPos[i]);
    }
    recordPhaseQuality(stats_, topo, clusterGraph, pinNode, "pin");
  }
  recordPhaseQuality(stats_, topo, clusterGraph, nodeOfCluster, "merge");

  // Final refinement: pairwise swaps on the full placement under the same
  // routing-aware objective (extension; see refine.hpp). With canonicalSeed
  // the dimension-order placement is refined as well and the better of the
  // two survives — the hierarchical search must never lose to the trivial
  // mapping.
  if (config_.finalRefinement) {
    obs::ScopedSpan span(obs::tracer(), "rahtm.phase.refine", "rahtm");
    obs::PhaseScope phase("rahtm.phase.refine");
    RefineConfig rcfg = config_.refine;
    rcfg.objective = config_.merge.objective;
    RefineResult rr;
    RefineResult rc;
    std::vector<NodeId> canonical;
    if (config_.canonicalSeed) {
      // The mapped-seed and canonical-seed refinements are independent
      // searches over disjoint state — run them as a two-task region.
      canonical.resize(nodeOfCluster.size());
      for (std::size_t i = 0; i < canonical.size(); ++i) {
        canonical[i] = static_cast<NodeId>(i);
      }
      pool.parallelFor(2, [&](std::size_t i) {
        if (i == 0) {
          rr = refinePlacement(topo, clusterGraph, nodeOfCluster, rcfg);
        } else {
          rc = refinePlacement(topo, clusterGraph, canonical, rcfg);
        }
      });
    } else {
      rr = refinePlacement(topo, clusterGraph, nodeOfCluster, rcfg);
    }
    stats_.refineSwaps = rr.swapsApplied;
    stats_.rootObjective = rr.objectiveAfter;
    if (config_.canonicalSeed) {
      // Lexicographic comparison under the active objective, on the exact
      // statistics of each refinement's final rebuild.
      const bool canonicalWins =
          rc.objectiveAfter < rr.objectiveAfter - 1e-12 ||
          (rcfg.objective == MapObjective::Mcl &&
           rc.objectiveAfter < rr.objectiveAfter + 1e-12 &&
           rc.sumSquaresAfter < rr.sumSquaresAfter * (1 - 1e-9));
      if (canonicalWins) {
        nodeOfCluster = std::move(canonical);
        stats_.rootObjective = rc.objectiveAfter;
        stats_.refineSwaps += rc.swapsApplied;
        RAHTM_LOG(Info) << "RAHTM: canonical-seed refinement won ("
                        << rc.objectiveAfter << " vs " << rr.objectiveAfter
                        << ")";
      }
    }
    span.attr("swaps", static_cast<std::int64_t>(stats_.refineSwaps));
    span.attr("objective", stats_.rootObjective);
    stats_.refineSeconds = span.close();
    recordPhaseQuality(stats_, topo, clusterGraph, nodeOfCluster, "refine");
  }

  // Rank -> (node, slot): slots assigned in rank order within each node.
  Mapping m(ranks);
  std::vector<int> nextSlot(static_cast<std::size_t>(topo.numNodes()), 0);
  for (RankId r = 0; r < ranks; ++r) {
    const ClusterId c =
        pipe.tree.concentration.clusterOf[static_cast<std::size_t>(r)];
    const NodeId n = nodeOfCluster[static_cast<std::size_t>(c)];
    RAHTM_REQUIRE(n != kInvalidNode, "RahtmMapper: unplaced cluster");
    m.assign(r, n, nextSlot[static_cast<std::size_t>(n)]++);
  }
  total.attr("root_objective", stats_.rootObjective);
  total.attr("subproblems", static_cast<std::int64_t>(stats_.subproblemsSolved));
  stats_.totalSeconds = total.close();
  RAHTM_LOG(Info) << "RAHTM mapped " << ranks << " ranks onto "
                  << topo.describe() << " in " << stats_.totalSeconds
                  << "s (cluster " << stats_.clusterSeconds << "s, pin "
                  << stats_.pinSeconds << "s, merge " << stats_.mergeSeconds
                  << "s); root objective " << stats_.rootObjective;
  return m;
}

Mapping RahtmMapper::mapWorkload(const Workload& workload, const Torus& topo,
                                 int concentration) {
  config_.logicalGrid = workload.logicalGrid;
  return map(workload.commGraph(), topo, concentration);
}

}  // namespace rahtm
