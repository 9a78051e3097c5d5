#pragma once
/// \file simplex.hpp
/// Dense bounded-variable primal simplex, two-phase (artificial start).
///
/// This is the LP engine under the MILP branch-and-bound (milp.hpp) and the
/// optimal-routing MCL evaluator (routing/lp_routing.hpp). It handles the
/// model sizes RAHTM produces at leaf level (hundreds of rows/columns) in
/// milliseconds to seconds; it is not meant as a general-purpose LP code.
///
/// Implementation notes:
///  * Variables carry finite lower bounds after standardization (>= rows are
///    negated to <= rows; slacks are [0,inf) or fixed [0,0] for equalities),
///    so nonbasic variables always rest on a bound.
///  * Artificial columns are virtual (±e_i); they start basic, are never
///    allowed to re-enter, and are pinned to zero after phase 1.
///  * Dantzig pricing with a Bland fallback after a stall guarantees
///    termination.

#include <vector>

#include "lp/model.hpp"

namespace rahtm::lp {

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterLimit,
  NodeLimit,   // used by MILP
  TimeLimit,
};

const char* toString(SolveStatus s);

struct LpSolution {
  SolveStatus status = SolveStatus::IterLimit;
  double objective = 0;
  std::vector<double> x;  ///< values of the model's variables
  long pivots = 0;        ///< basis changes across both phases
  /// Tableau rebuilds from the original data: one at the start of each
  /// phase, then one every SimplexOptions::refactorEvery pivots.
  long refactorizations = 0;
  /// A rebuild found the basis numerically singular, which ends the solve
  /// with IterLimit.
  bool singularBasis = false;
};

struct SimplexOptions {
  long maxIterations = -1;    ///< -1: automatic (scales with model size)
  int refactorEvery = 128;    ///< rebuild the tableau every N pivots
  /// Wall-clock budget for one solve in seconds (<= 0: none). Checked
  /// periodically inside the pivot loop; exhaustion returns IterLimit —
  /// this is how the MILP's time limit interrupts a long relaxation.
  double timeLimitSec = -1;
};

/// Solve the continuous relaxation of \p model (integrality is ignored).
LpSolution solveLp(const Model& model, const SimplexOptions& opts = {});

}  // namespace rahtm::lp
