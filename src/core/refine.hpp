#pragma once
/// \file refine.hpp
/// Final pairwise-swap refinement of a node-cluster placement.
///
/// The hierarchical pipeline optimizes each subproblem on local flows and
/// merges rigid blocks, so the global placement can end slightly off a
/// local optimum of the full objective. This pass runs first-improvement
/// swap sweeps over the complete mapping under the same routing-aware MCL
/// metric until a sweep finds nothing (or the pass budget is exhausted).
/// Candidate evaluation is delta-based (routing/delta_eval.hpp): a probe
/// touches only the channels of flows incident to the swapped vertices, and
/// a rejected probe never sweeps the dense load vector.
///
/// This is an extension beyond the paper's three phases (the paper's §VI
/// mentions pursuing techniques to improve quality/cost); it is enabled by
/// default and isolated behind RahtmConfig::finalRefinement so the ablation
/// benches can quantify its contribution.

#include <cstdint>
#include <vector>

#include "core/subproblem.hpp"
#include "graph/comm_graph.hpp"
#include "topology/torus.hpp"

namespace rahtm {

/// Which swap pairs a refinement pass examines.
enum class RefineCandidates {
  /// AllPairs below RefineConfig::autoPruneThreshold vertices, Pruned at or
  /// above it.
  Auto,
  /// Every unordered pair (a,b) — exhaustive n^2/2 scan per pass.
  AllPairs,
  /// Neighbor-biased candidates with don't-look bits: for an active vertex
  /// a, only its communication partners, the vertices placed next to those
  /// partners, and the vertices placed next to a itself are tried — O(edges)
  /// promising pairs per pass instead of all n^2.
  Pruned,
};

struct RefineConfig {
  int maxPasses = 30;        ///< full sweeps over the candidate pairs
  MapObjective objective = MapObjective::Mcl;
  RefineCandidates candidates = RefineCandidates::Auto;
  /// Vertex count at which Auto switches from AllPairs to Pruned. At 128
  /// vertices (bench_scaling's 1024-rank/128-node point) Pruned reaches the
  /// same final objective as AllPairs in ~60% of the time; at 512 vertices
  /// the exhaustive n^2/2 scan costs minutes per mapping even with
  /// delta-evaluated probes.
  int autoPruneThreshold = 96;
  /// Optional provider of shared route tables / flow incidences (non-owning;
  /// must outlive the call). Null = build artifacts locally.
  ArtifactSource* artifacts = nullptr;
};

struct RefineResult {
  double objectiveBefore = 0;
  double objectiveAfter = 0;
  int swapsApplied = 0;
  int passes = 0;
  std::uint64_t probes = 0;        ///< candidate swaps evaluated
  std::uint64_t denseSweeps = 0;   ///< from-scratch rebuilds performed
  std::uint64_t maskedSweeps = 0;  ///< probes that swept for their max
};

/// Improve \p nodeOfCluster (a placement of clusterGraph's vertices onto
/// distinct nodes of \p topo) in place by greedy pairwise swaps.
RefineResult refinePlacement(const Torus& topo, const CommGraph& clusterGraph,
                             std::vector<NodeId>& nodeOfCluster,
                             const RefineConfig& cfg = {});

}  // namespace rahtm
