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
/// sweeps the dense load vector (once, masked) only when it touches the
/// channel that holds the current maximum.
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
  /// AllPairs below 96 vertices, Pruned at or above (see refine.cpp).
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
  /// Optional provider of shared route tables / flow incidences (non-owning;
  /// must outlive the call). Null = build artifacts locally.
  ArtifactSource* artifacts = nullptr;
};

struct RefineResult {
  double objectiveBefore = 0;
  double objectiveAfter = 0;
  /// Sum of squared channel loads of the final placement (Mcl objective):
  /// the tie-breaker when two refined placements share an MCL.
  double sumSquaresAfter = 0;
  int swapsApplied = 0;
  int passes = 0;
  std::uint64_t probes = 0;        ///< candidate swaps evaluated
  std::uint64_t denseSweeps = 0;   ///< from-scratch rebuilds performed
  std::uint64_t maskedSweeps = 0;  ///< probes that swept for their max
  std::uint64_t channelVisits = 0;  ///< route channels probes accumulated
};

/// Improve \p nodeOfCluster (a placement of clusterGraph's vertices onto
/// distinct nodes of \p topo) in place by greedy pairwise swaps.
RefineResult refinePlacement(const Torus& topo, const CommGraph& clusterGraph,
                             std::vector<NodeId>& nodeOfCluster,
                             const RefineConfig& cfg = {});

}  // namespace rahtm
