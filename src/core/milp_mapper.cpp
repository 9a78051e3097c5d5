#include "core/milp_mapper.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "lp/model.hpp"
#include "routing/oblivious.hpp"

namespace rahtm {

namespace {

/// One logical directed edge of the cube. Wrapped extent-2 dimensions carry
/// a single logical edge of multiplicity 2 per direction pair (the paper's
/// double-wide link) instead of two parallel physical channels.
struct CubeEdge {
  NodeId from;
  NodeId to;
  std::size_t dim;
  bool plusDirection;  ///< which side of the C3 direction binary this is
  int multiplicity;
};

std::vector<CubeEdge> buildEdges(const Torus& cube) {
  std::vector<CubeEdge> edges;
  for (NodeId u = 0; u < cube.numNodes(); ++u) {
    const Coord cu = cube.coordOf(u);
    for (std::size_t d = 0; d < cube.ndims(); ++d) {
      if (cube.extent(d) == 2 && cube.wraps(d)) {
        // Double-wide: one logical edge to the partner; call the edge
        // leaving coordinate 0 the Plus direction.
        const auto nb = cube.neighbor(cu, d, Dir::Plus);
        RAHTM_REQUIRE(nb.has_value(), "buildEdges: missing torus neighbor");
        edges.push_back(
            {u, cube.nodeId(*nb), d, /*plusDirection=*/cu[d] == 0, 2});
        continue;
      }
      for (const Dir dir : {Dir::Plus, Dir::Minus}) {
        const auto nb = cube.neighbor(cu, d, dir);
        if (!nb) continue;
        edges.push_back({u, cube.nodeId(*nb), d, dir == Dir::Plus, 1});
      }
    }
  }
  return edges;
}

/// Greedy warm-start placement: clusters in decreasing order of incident
/// volume, each placed on the free vertex minimizing the incremental
/// oblivious maximum channel load. Honors the symmetry-breaking pin of
/// cluster 0 to vertex 0.
std::vector<NodeId> greedyPlacement(const CommGraph& g, const Torus& cube,
                                    const MilpMapOptions& opts) {
  const auto numClusters = static_cast<std::size_t>(g.numRanks());
  std::vector<double> incident(numClusters, 0.0);
  for (const Flow& f : g.flows()) {
    incident[static_cast<std::size_t>(f.src)] += f.bytes;
    incident[static_cast<std::size_t>(f.dst)] += f.bytes;
  }
  std::vector<std::size_t> order(numClusters);
  for (std::size_t i = 0; i < numClusters; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return incident[a] > incident[b];
  });
  if (opts.breakSymmetry && numClusters > 0) {
    // Cluster 0 goes first (pinned at vertex 0).
    order.erase(std::find(order.begin(), order.end(), std::size_t{0}));
    order.insert(order.begin(), 0);
  }

  std::vector<NodeId> place(numClusters, kInvalidNode);
  std::vector<bool> used(static_cast<std::size_t>(cube.numNodes()), false);
  ChannelLoadMap loads(cube);
  for (const std::size_t a : order) {
    NodeId bestV = kInvalidNode;
    double bestMcl = 0;
    ChannelLoadMap bestLoads(cube);
    for (NodeId v = 0; v < cube.numNodes(); ++v) {
      if (used[static_cast<std::size_t>(v)]) continue;
      if (opts.breakSymmetry && a == 0 && v != 0) continue;
      ChannelLoadMap trial = loads;
      for (const Flow& f : g.flows()) {
        const bool out = f.src == static_cast<RankId>(a);
        const bool in = f.dst == static_cast<RankId>(a);
        if (!out && !in) continue;
        const std::size_t peer =
            static_cast<std::size_t>(out ? f.dst : f.src);
        if (place[peer] == kInvalidNode) continue;
        const Coord cs = cube.coordOf(out ? v : place[peer]);
        const Coord cd = cube.coordOf(out ? place[peer] : v);
        accumulateUniformMinimal(cube, cs, cd, f.bytes, trial);
      }
      const double mcl = trial.maxLoad();
      if (bestV == kInvalidNode || mcl < bestMcl) {
        bestV = v;
        bestMcl = mcl;
        bestLoads = std::move(trial);
      }
    }
    RAHTM_REQUIRE(bestV != kInvalidNode, "greedyPlacement: no free vertex");
    place[a] = bestV;
    used[static_cast<std::size_t>(bestV)] = true;
    loads = std::move(bestLoads);
  }
  return place;
}

}  // namespace

MilpMapResult milpMapToCube(const CommGraph& g, const Torus& cube,
                            const MilpMapOptions& opts) {
  using lp::Term;
  const auto numClusters = static_cast<std::size_t>(g.numRanks());
  const auto numVerts = static_cast<std::size_t>(cube.numNodes());
  RAHTM_REQUIRE(numClusters <= numVerts,
                "milpMapToCube: more clusters than vertices");

  const std::vector<CubeEdge> edges = buildEdges(cube);
  const std::vector<Flow>& flows = g.flows();

  // Guard: the dense simplex underneath holds an m x (n + m) tableau. Refuse
  // models whose tableau would not be practical instead of thrashing memory;
  // the caller's portfolio falls through to exhaustive / annealing search.
  {
    const std::size_t nVars = 1 + numClusters * numVerts +
                              flows.size() * edges.size() +
                              flows.size() * cube.ndims();
    const std::size_t nRows = numClusters + numVerts +
                              flows.size() * numVerts +
                              flows.size() * edges.size() + edges.size();
    const std::size_t tableauCells = nRows * (nVars + nRows);
    if (tableauCells > 30'000'000) {  // ~240 MB of doubles
      MilpMapResult tooBig;
      tooBig.statusString = "model-too-large";
      return tooBig;
    }
  }

  lp::Model model;
  model.setObjective(lp::Objective::Minimize);

  const lp::VarId z = model.addContinuous("z", 0, lp::infinity(), 1.0);

  // g[a][v] assignment binaries.
  std::vector<std::vector<lp::VarId>> gVar(numClusters,
                                           std::vector<lp::VarId>(numVerts));
  for (std::size_t a = 0; a < numClusters; ++a) {
    for (std::size_t v = 0; v < numVerts; ++v) {
      gVar[a][v] = model.addBinary("g_" + std::to_string(a) + "_" +
                                   std::to_string(v));
    }
  }
  if (opts.breakSymmetry && numClusters > 0) {
    // 2-ary d-cubes are vertex-transitive; pin cluster 0 to vertex 0.
    model.variable(gVar[0][0]).lb = 1;
  }

  // f[i][e] flow variables.
  std::vector<std::vector<lp::VarId>> fVar(flows.size(),
                                           std::vector<lp::VarId>(edges.size()));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      fVar[i][e] = model.addContinuous(
          "f_" + std::to_string(i) + "_" + std::to_string(e), 0,
          flows[i].bytes);
    }
  }

  // r[i][dim] direction binaries (C3).
  std::vector<std::vector<lp::VarId>> rVar(
      flows.size(), std::vector<lp::VarId>(cube.ndims()));
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (std::size_t d = 0; d < cube.ndims(); ++d) {
      rVar[i][d] =
          model.addBinary("r_" + std::to_string(i) + "_" + std::to_string(d));
    }
  }

  // C1: each cluster on exactly one vertex; each vertex at most one cluster.
  for (std::size_t a = 0; a < numClusters; ++a) {
    std::vector<Term> terms;
    for (std::size_t v = 0; v < numVerts; ++v) terms.push_back({gVar[a][v], 1});
    model.addConstraint("C1_cluster_" + std::to_string(a), terms,
                        lp::Sense::Equal, 1);
  }
  for (std::size_t v = 0; v < numVerts; ++v) {
    std::vector<Term> terms;
    for (std::size_t a = 0; a < numClusters; ++a) terms.push_back({gVar[a][v], 1});
    model.addConstraint("C1_vertex_" + std::to_string(v), terms,
                        lp::Sense::LessEq, 1);
  }

  // C2: flow conservation with floating endpoints, per flow per vertex:
  //   Σ_out f - Σ_in f = l·g[src][v] - l·g[dst][v]
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (std::size_t v = 0; v < numVerts; ++v) {
      std::vector<Term> terms;
      for (std::size_t e = 0; e < edges.size(); ++e) {
        if (edges[e].from == static_cast<NodeId>(v)) {
          terms.push_back({fVar[i][e], 1});
        } else if (edges[e].to == static_cast<NodeId>(v)) {
          terms.push_back({fVar[i][e], -1});
        }
      }
      terms.push_back(
          {gVar[static_cast<std::size_t>(flows[i].src)][v], -flows[i].bytes});
      terms.push_back(
          {gVar[static_cast<std::size_t>(flows[i].dst)][v], flows[i].bytes});
      model.addConstraint(
          "C2_f" + std::to_string(i) + "_v" + std::to_string(v), terms,
          lp::Sense::Equal, 0);
    }
  }

  // C3: one direction per dimension per flow.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const CubeEdge& edge = edges[e];
      if (edge.plusDirection) {
        model.addConstraint(
            "C3p_f" + std::to_string(i) + "_e" + std::to_string(e),
            {{fVar[i][e], 1}, {rVar[i][edge.dim], -flows[i].bytes}},
            lp::Sense::LessEq, 0);
      } else {
        model.addConstraint(
            "C3m_f" + std::to_string(i) + "_e" + std::to_string(e),
            {{fVar[i][e], 1}, {rVar[i][edge.dim], flows[i].bytes}},
            lp::Sense::LessEq, flows[i].bytes);
      }
    }
  }

  // MCL rows: Σ_i f[i][e] <= mult(e) · z.
  for (std::size_t e = 0; e < edges.size(); ++e) {
    std::vector<Term> terms;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      terms.push_back({fVar[i][e], 1});
    }
    terms.push_back({z, -static_cast<double>(edges[e].multiplicity)});
    model.addConstraint("MCL_e" + std::to_string(e), terms, lp::Sense::LessEq,
                        0);
  }

  lp::MilpOptions milpOpts;
  milpOpts.timeLimitSec = opts.timeLimitSec;
  milpOpts.maxNodes = opts.maxNodes;

  // Warm start: greedy placement + single-path dimension-order routing is
  // always feasible (one direction per dimension satisfies C3), and gives
  // the branch-and-bound an immediate cutoff — without it, symmetric
  // instances rarely produce integral relaxations within budget.
  {
    const std::vector<NodeId> greedy = greedyPlacement(g, cube, opts);
    std::vector<double> x(model.numVariables(), 0.0);
    for (std::size_t a = 0; a < numClusters; ++a) {
      x[static_cast<std::size_t>(
          gVar[a][static_cast<std::size_t>(greedy[a])])] = 1.0;
    }
    std::vector<double> edgeLoad(edges.size(), 0.0);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const NodeId s = greedy[static_cast<std::size_t>(flows[i].src)];
      const NodeId t = greedy[static_cast<std::size_t>(flows[i].dst)];
      Coord cur = cube.coordOf(s);
      const Coord dst = cube.coordOf(t);
      SmallVec<std::int8_t, kMaxDims> dirUsed(cube.ndims(), -1);
      while (cube.nodeId(cur) != t) {
        bool stepped = false;
        for (std::size_t d = 0; d < cube.ndims() && !stepped; ++d) {
          const MinimalOffset off = cube.minimalOffset(cur, dst, d);
          if (off.steps == 0) continue;
          const auto nb = cube.neighbor(cur, d, off.dir);
          RAHTM_REQUIRE(nb.has_value(), "warm start: DOR step failed");
          // Find the logical edge cur->nb in dimension d.
          const NodeId from = cube.nodeId(cur);
          const NodeId to = cube.nodeId(*nb);
          for (std::size_t e = 0; e < edges.size(); ++e) {
            if (edges[e].from == from && edges[e].to == to &&
                edges[e].dim == d) {
              x[static_cast<std::size_t>(fVar[i][e])] += flows[i].bytes;
              edgeLoad[e] += flows[i].bytes;
              dirUsed[d] = edges[e].plusDirection ? 1 : 0;
              break;
            }
          }
          cur = *nb;
          stepped = true;
        }
        RAHTM_REQUIRE(stepped, "warm start: no productive dimension");
      }
      for (std::size_t d = 0; d < cube.ndims(); ++d) {
        x[static_cast<std::size_t>(rVar[i][d])] =
            dirUsed[d] == -1 ? 1.0 : static_cast<double>(dirUsed[d]);
      }
    }
    double zVal = 0;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      zVal = std::max(zVal, edgeLoad[e] /
                                static_cast<double>(edges[e].multiplicity));
    }
    x[static_cast<std::size_t>(z)] = zVal;
    milpOpts.warmStart = std::move(x);
  }

  const lp::MilpSolution sol = lp::solveMilp(model, milpOpts);

  MilpMapResult result;
  result.statusString = lp::toString(sol.status);
  result.nodesExplored = sol.nodesExplored;
  result.bestBound = sol.bestBound;
  if (!sol.hasIncumbent) return result;
  result.solved = true;
  result.provedOptimal = (sol.status == lp::SolveStatus::Optimal);
  result.objective = sol.objective;
  result.vertexOf.assign(numClusters, kInvalidNode);
  for (std::size_t a = 0; a < numClusters; ++a) {
    for (std::size_t v = 0; v < numVerts; ++v) {
      if (sol.x[static_cast<std::size_t>(gVar[a][v])] > 0.5) {
        result.vertexOf[a] = static_cast<NodeId>(v);
        break;
      }
    }
    RAHTM_REQUIRE(result.vertexOf[a] != kInvalidNode,
                  "milpMapToCube: incumbent with unassigned cluster");
  }
  return result;
}

}  // namespace rahtm
