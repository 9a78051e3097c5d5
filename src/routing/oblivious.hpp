#pragma once
/// \file oblivious.hpp
/// Closed-form channel loads for oblivious routing algorithms.
///
/// BG/Q uses minimum adaptive routing (MAR). Following the paper (§III-D),
/// we approximate it by an *oblivious* algorithm that spreads each flow
/// uniformly over all of its minimal Manhattan paths; per-channel expected
/// loads then have a closed form via multinomial path counting (the
/// technique of refs [19,20] in the paper). A 2-ary torus dimension is a
/// "double-wide link": both physical channels between the node pair are
/// modeled and the tie-split spreads load across them.

#include <functional>
#include <vector>

#include "graph/comm_graph.hpp"
#include "routing/channel_load.hpp"
#include "topology/torus.hpp"

namespace rahtm {

/// Number of minimal paths from \p src to \p dst (summed over direction
/// ties). Exact for the hop counts that arise in torus networks.
double countMinimalPaths(const Torus& topo, const Coord& src, const Coord& dst);

/// Accumulate the expected per-channel load of a flow of \p volume from
/// \p src to \p dst under uniform-minimal routing.
void accumulateUniformMinimal(const Torus& topo, const Coord& src,
                              const Coord& dst, double volume,
                              ChannelLoadMap& loads);

/// Same computation, but delivering each (channel, load) contribution to a
/// callback instead of a dense map — RouteTable builds its routes from it.
/// A channel may be reported more than once.
void forEachUniformMinimalLoad(
    const Torus& topo, const Coord& src, const Coord& dst, double volume,
    const std::function<void(ChannelId, double)>& sink);

/// Accumulate the per-channel load under deterministic dimension-order
/// routing (dimensions resolved in index order; direction ties go Plus).
void accumulateDimensionOrder(const Torus& topo, const Coord& src,
                              const Coord& dst, double volume,
                              ChannelLoadMap& loads);

/// Which load model to use when evaluating a placement.
enum class LoadModel { UniformMinimal, DimensionOrder };

/// Channel loads of a whole communication graph under a placement.
/// \p nodeOfVertex maps each graph vertex to a node id of \p topo; flows
/// whose endpoints share a node add no network load.
ChannelLoadMap placementLoads(const Torus& topo, const CommGraph& graph,
                              const std::vector<NodeId>& nodeOfVertex,
                              LoadModel model = LoadModel::UniformMinimal);

/// Maximum channel load of a placement (the paper's mapping objective).
double placementMcl(const Torus& topo, const CommGraph& graph,
                    const std::vector<NodeId>& nodeOfVertex,
                    LoadModel model = LoadModel::UniformMinimal);

}  // namespace rahtm
