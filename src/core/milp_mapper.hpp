#pragma once
/// \file milp_mapper.hpp
/// The paper's Table II MILP: simultaneous placement and minimal routing of
/// a small cluster graph onto a 2-ary d-cube, minimizing the maximum
/// channel load.
///
/// Variables
///   z          : the MCL being minimized
///   g[a][v]    : binary — cluster a occupies cube vertex v
///   f[i][e]    : continuous — load of flow i on directed edge e
///   r[i][dim]  : binary — the one direction flow i may use in `dim` (C3)
/// Constraints
///   C1 : every cluster on exactly one vertex; every vertex holds at most one
///   C2 : flow conservation with floating endpoints
///        (inflow + l·g[src][v] == outflow + l·g[dst][v] at every vertex)
///   C3 : f on the Plus edge of dim <= l·r[i][dim];
///        f on the Minus edge     <= l·(1 - r[i][dim])   (minimality)
///   MCL: Σ_i f[i][e] <= mult(e) · z, where mult(e) = 2 for the double-wide
///        edges of a wrapped extent-2 dimension (§III-C) and 1 otherwise.

#include <string>
#include <vector>

#include "graph/comm_graph.hpp"
#include "lp/milp.hpp"
#include "topology/torus.hpp"

namespace rahtm {

struct MilpMapOptions {
  double timeLimitSec = 30.0;
  long maxNodes = 100000;
  /// Fix cluster 0 at vertex 0 (valid symmetry breaking on the
  /// vertex-transitive 2-ary d-cube; cuts the search by |V|).
  bool breakSymmetry = true;
};

struct MilpMapResult {
  bool solved = false;            ///< an incumbent placement exists
  bool provedOptimal = false;     ///< search closed the gap
  std::vector<NodeId> vertexOf;   ///< cluster -> vertex
  double objective = 0;           ///< MILP objective (LP-split MCL)
  double bestBound = 0;
  long nodesExplored = 0;
  std::string statusString;
};

/// Solve the Table II MILP for \p g on \p cube. Requires
/// g.numRanks() <= cube.numNodes() and cube.numNodes() small (the caller's
/// portfolio keeps this to leaf-level sizes).
MilpMapResult milpMapToCube(const CommGraph& g, const Torus& cube,
                            const MilpMapOptions& opts = {});

}  // namespace rahtm
