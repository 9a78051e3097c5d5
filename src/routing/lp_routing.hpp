#pragma once
/// \file lp_routing.hpp
/// Optimal minimal-path routing of a placed communication pattern, by
/// linear programming: each flow may split arbitrarily across its minimal
/// channels, and the LP minimizes the maximum channel load.
///
/// This is the idealized counterpart of the uniform-minimal model in
/// oblivious.hpp: uniform splitting is what the MAR approximation assumes
/// packets do on average; the LP computes the best any minimal routing could
/// do. The Table II MILP (core/milp_mapper.hpp) optimizes over placement
/// *and* this routing simultaneously; this header provides the routing-only
/// subproblem for fixed placements, used to cross-validate the MILP and as
/// an alternative evaluation metric.

#include <vector>

#include "graph/comm_graph.hpp"
#include "lp/simplex.hpp"
#include "topology/torus.hpp"

namespace rahtm {

struct LpRoutingResult {
  lp::SolveStatus status = lp::SolveStatus::Infeasible;
  double mcl = 0;  ///< optimal maximum channel load
};

/// Minimum achievable MCL when every flow of \p graph (placed by
/// \p nodeOfVertex onto \p topo) may split across all of its minimal
/// channels. Direction ties (torus offsets of exactly k/2) may also split,
/// matching MAR's use of all Manhattan paths.
LpRoutingResult optimalMinimalMcl(const Torus& topo, const CommGraph& graph,
                                  const std::vector<NodeId>& nodeOfVertex);

}  // namespace rahtm
