#pragma once
/// \file merge.hpp
/// RAHTM phase 3 (§III-D): bottom-up incremental merging of mapped blocks
/// with rotation/reorientation search.
///
/// For one hierarchy node, the 2^d child blocks (each already mapped
/// internally and pseudo-pinned to a slot by phase 2) are merged one at a
/// time. The merge order is greedy by decreasing average pairwise
/// interaction; at each step every orientation of the incoming block (its
/// full signed-permutation symmetry group) is evaluated against each
/// retained partial merge, and the best N combinations survive (beam
/// search, N = 64 in the paper). The incoming block may also be
/// *repositioned* onto a free slot near its pin
/// (MergeConfig::maxRepositionSlots).

#include <vector>

#include "core/subproblem.hpp"
#include "graph/comm_graph.hpp"
#include "topology/orientation.hpp"
#include "topology/torus.hpp"

namespace rahtm {

/// One child block entering a merge.
struct MergeChild {
  /// Global node-cluster ids living in this block.
  std::vector<ClusterId> clusters;
  /// Position of clusters[i] inside the child block (local coords).
  std::vector<Coord> localPos;
  /// Phase-2 pseudo-pinned slot in the parent's child grid.
  Coord slot;
  /// Pin-only internal layout (phase-2 pins composed recursively, no merge
  /// choices). Empty means localPos already is the pin layout. The beam
  /// always retains the lineage built from these at the pinned slots, so
  /// the merge result is never worse than the global pseudo-pin solution.
  std::vector<Coord> pinPos;
};

struct MergeConfig {
  int beamWidth = 64;             ///< N of §III-D
  /// Free slots searched per child besides its pinned one: the nearest
  /// maxRepositionSlots neighbours in the slot grid. Repositioning is the
  /// paper's second degree of freedom ("rotation and repositioning",
  /// §III-A); it costs a factor of (considered slots) per candidate but
  /// recovers from coarse phase-2 pins, and the cap bounds the candidate
  /// explosion on large hierarchy nodes. 0 keeps every child at its pin.
  int maxRepositionSlots = 7;
  long maxOrientations = 1024;    ///< deterministic subsample cap
  MapObjective objective = MapObjective::Mcl;
  /// Optional provider of shared route tables (non-owning; must outlive the
  /// call). Null = build the region's route table locally.
  ArtifactSource* artifacts = nullptr;
};

struct MergeResult {
  /// localNode[i] = node id (in the region topology) of cluster
  /// clustersInRegion[i].
  std::vector<ClusterId> clustersInRegion;
  std::vector<NodeId> localNode;
  double objective = 0;  ///< best achieved region objective
  /// Chosen orientation per child, indexed like the `children` input.
  std::vector<Orientation> orientationOfChild;
  std::vector<Coord> slotOfChild;
  /// The pin-only layout of the region (children's pinPos at their pinned
  /// slots), for threading the global pin lineage up the hierarchy.
  std::vector<NodeId> pinLocalNode;
};

/// Merge \p children inside a region of topology \p regionTopo, whose
/// child grid is \p childGrid with per-child block shape \p childShape
/// (childGrid[d] * childShape[d] == regionTopo.extent(d)). Flows of
/// \p clusterGraph with both endpoints inside the region drive the
/// objective; all other flows are ignored (the paper evaluates each
/// subproblem on its local communication).
MergeResult mergeChildren(const Torus& regionTopo, const Shape& childShape,
                          const Shape& childGrid,
                          const std::vector<MergeChild>& children,
                          const CommGraph& clusterGraph,
                          const MergeConfig& cfg);

}  // namespace rahtm
