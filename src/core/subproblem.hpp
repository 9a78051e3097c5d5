#pragma once
/// \file subproblem.hpp
/// Solvers for the small cluster-to-cube mapping subproblems of phase 2
/// (§III-C). The paper uses CPLEX on the Table II MILP for every level;
/// this portfolio applies the exact MILP where it is fast, an exhaustive
/// permutation search (also exact, under the oblivious evaluation metric)
/// for mid-sized cubes, and multi-restart simulated annealing beyond that.
/// The thresholds are configurable so studies can force one method.

#include <string>
#include <vector>

#include "graph/comm_graph.hpp"
#include "routing/delta_eval.hpp"
#include "topology/torus.hpp"

namespace rahtm {

namespace exec {
class ThreadPool;
}

/// Hard feasibility cap for exhaustiveSearch: 9! = 362880 placements.
/// dispatchSubproblem clamps SubproblemConfig::exhaustiveMaxVerts to this
/// (with a warning) instead of letting a mid-pipeline solve abort.
inline constexpr std::int64_t kExhaustiveNodeCap = 9;

struct SubproblemConfig {
  int milpMaxVerts = 4;        ///< exact Table II MILP up to this many nodes
  int exhaustiveMaxVerts = 8;  ///< exhaustive permutations up to this
  /// MILP budgets. Symmetric cluster graphs (uniform volumes) have weak LP
  /// bounds, so proofs can take long; budget exhaustion returns the best
  /// incumbent (warm-started, never worse than greedy + DOR routing).
  double milpTimeLimitSec = 5.0;
  long milpMaxNodes = 20000;
  int annealRestarts = 6;
  long annealIters = 20000;
  std::uint64_t seed = 0x5eed;
  MapObjective objective = MapObjective::Mcl;
  /// Optional provider of shared route tables / flow incidences (non-owning;
  /// must outlive the solve). Null = build artifacts locally. Shared
  /// artifacts are content-identical to locally built ones, so results stay
  /// bit-identical either way.
  ArtifactSource* artifacts = nullptr;
};

struct SubproblemSolution {
  std::vector<NodeId> vertexOf;  ///< graph vertex -> cube node
  double objective = 0;          ///< achieved objective value
  std::string method;            ///< "milp" / "exhaustive" / "anneal"
  /// Method-specific work count (telemetry): B&B nodes for "milp",
  /// placements evaluated for "exhaustive", proposed moves for "anneal".
  long iterations = 0;
  /// Delta-engine telemetry ("anneal" only): candidate moves evaluated,
  /// probes cut at the acceptance bar, moves committed, probes that swept
  /// for their max and route channels the probes accumulated, across all
  /// restarts.
  std::uint64_t probes = 0;
  std::uint64_t cuts = 0;
  std::uint64_t commits = 0;
  std::uint64_t maskedSweeps = 0;
  std::uint64_t channelVisits = 0;
};

/// Objective value of a placement under the oblivious uniform-minimal model
/// (or hop-bytes for the ablation).
double evalPlacement(const CommGraph& g, const Torus& cube,
                     const std::vector<NodeId>& vertexOf, MapObjective obj);

/// Exact search over all one-to-one placements. Throws beyond
/// kExhaustiveNodeCap nodes; the portfolio clamps instead of calling it.
SubproblemSolution exhaustiveSearch(const CommGraph& g, const Torus& cube,
                                    MapObjective obj);

/// The anneal's acceptance bar for current objective \p c0, tie band
/// \p tie, temperature \p temp and the draw \p u in [0, 1) that the
/// Metropolis test `delta <= tie || u < exp(-delta / temp)` would use on a
/// candidate delta = candidate - c0. Every candidate above the bar fails
/// that test, rounding of exp, log and the subtraction included: the bar
/// is c0 + max(tie, -temp·ln u) plus a margin of 1e-12·(c0 + that + temp).
/// +inf when u == 0.
double annealAcceptanceBar(double c0, double tie, double temp, double u);

/// Multi-restart simulated annealing over placements. Moves are pairwise
/// swaps plus, on partially-filled cubes, vertex-to-empty-node relocations
/// (without them the nodes left out of the initial random prefix would be
/// unreachable for the whole search). Restart RNG streams are pre-split by
/// restart index, so when \p pool is given the restarts run in parallel
/// with bit-identical results to the serial order. Under the MCL objective
/// each probe carries the acceptance bar of the draw its test would make
/// (annealAcceptanceBar), so most rejected probes stop at one witness
/// channel; every decision is the one the full probe would give.
SubproblemSolution annealSearch(const CommGraph& g, const Torus& cube,
                                const SubproblemConfig& cfg,
                                exec::ThreadPool* pool = nullptr);

/// Portfolio dispatch by cube size (MILP -> exhaustive -> annealing).
/// \p pool, when non-null, parallelizes annealing restarts.
SubproblemSolution solveSubproblem(const CommGraph& g, const Torus& cube,
                                   const SubproblemConfig& cfg,
                                   exec::ThreadPool* pool = nullptr);

}  // namespace rahtm
