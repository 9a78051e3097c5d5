#pragma once
/// \file milp.hpp
/// Branch-and-bound MILP solver over the simplex LP engine.
///
/// RAHTM's leaf subproblems (Table II) are small mixed-integer programs; the
/// paper solved them with CPLEX. This solver uses best-first search with
/// most-fractional branching and returns the best incumbent found when a
/// node or time budget is exhausted — the hierarchical pipeline treats a
/// budget-limited incumbent the same way the paper treats a long CPLEX run
/// cut short.

#include <utility>
#include <vector>

#include "lp/simplex.hpp"

namespace rahtm::lp {

struct MilpOptions {
  SimplexOptions simplex;
  long maxNodes = 200000;     ///< branch-and-bound node budget
  double timeLimitSec = 0;    ///< 0: no limit
  /// Optional feasible starting point. Installed as the initial incumbent
  /// (after a feasibility check), giving the search an immediate pruning
  /// cutoff — essential on symmetric models where integral relaxations are
  /// rare.
  std::vector<double> warmStart;
};

struct MilpSolution {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = 0;        ///< incumbent objective (valid if hasIncumbent)
  double bestBound = 0;        ///< proven bound on the optimum
  bool hasIncumbent = false;
  std::vector<double> x;       ///< incumbent point
  long nodesExplored = 0;
  long lpPivots = 0;           ///< simplex pivots across all relaxations
  /// Incumbent trajectory: (nodes explored when found, objective), in
  /// discovery order. The last entry is the returned incumbent.
  std::vector<std::pair<long, double>> incumbentTrail;
};

/// Solve \p model to optimality or budget exhaustion.
MilpSolution solveMilp(const Model& model, const MilpOptions& opts = {});

}  // namespace rahtm::lp
