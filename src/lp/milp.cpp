#include "lp/milp.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/timer.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rahtm::lp {

namespace {

struct Node {
  // Bound tightenings relative to the root model, as (var, lb, ub).
  struct BoundFix {
    VarId var;
    double lb, ub;
  };
  std::vector<BoundFix> fixes;
  double bound = 0;  // parent LP objective (a valid lower bound when minimizing)

  bool operator<(const Node& other) const {
    return bound > other.bound;  // min-heap on bound (best-first)
  }
};

/// Index of the most fractional integer variable, or -1 if integral.
int mostFractional(const Model& model, const std::vector<double>& x,
                   double tol) {
  int best = -1;
  double bestDist = tol;
  for (std::size_t j = 0; j < model.numVariables(); ++j) {
    if (model.variable(static_cast<VarId>(j)).type == VarType::Continuous)
      continue;
    const double frac = x[j] - std::floor(x[j]);
    const double dist = std::min(frac, 1 - frac);
    if (dist > bestDist) {
      bestDist = dist;
      best = static_cast<int>(j);
    }
  }
  return best;
}

}  // namespace

MilpSolution solveMilp(const Model& rootModel, const MilpOptions& opts) {
  obs::ScopedSpan span(obs::tracer(), "lp.milp.solve", "lp");
  Timer timer;
  MilpSolution result;
  const double minimize =
      rootModel.objectiveSense() == Objective::Minimize ? 1.0 : -1.0;

  // Working model whose bounds we mutate per node (cheaper than copying the
  // constraint matrix for every node).
  Model model = rootModel;

  std::priority_queue<Node> open;
  open.push(Node{{}, -1e300});

  double incumbentObj = 1e300;  // in minimize-space
  result.bestBound = -1e300;

  auto tryIncumbent = [&](const std::vector<double>& x) {
    if (!rootModel.isFeasible(x, opts.intTol * 10)) return;
    const double obj = minimize * rootModel.objectiveValue(x);
    if (obj < incumbentObj - opts.gapTol) {
      incumbentObj = obj;
      result.x = x;
      result.hasIncumbent = true;
      result.incumbentTrail.emplace_back(result.nodesExplored,
                                         minimize * obj);
      obs::FlightRecorder::instance().record(
          obs::FrEvent::MilpIncumbent, result.nodesExplored,
          static_cast<std::int64_t>(minimize * obj));
      if (obs::Tracer* t = obs::tracer()) {
        t->instant("milp.incumbent", "lp",
                   {{"objective", obs::jsonDouble(minimize * obj)},
                    {"node", obs::jsonInt(result.nodesExplored)}});
      }
    }
  };

  if (!opts.warmStart.empty()) tryIncumbent(opts.warmStart);

  // Bound of the weakest node dropped with its relaxation unresolved (the
  // root's is -1e300): its subtree was never searched, so the proven bound
  // can be no better.
  bool unresolvedNodes = false;
  double unresolvedBound = 1e300;
  SolveStatus finalStatus = SolveStatus::Optimal;
  while (!open.empty()) {
    if (opts.maxNodes > 0 && result.nodesExplored >= opts.maxNodes) {
      finalStatus = SolveStatus::NodeLimit;
      break;
    }
    if (opts.timeLimitSec > 0 && timer.seconds() > opts.timeLimitSec) {
      finalStatus = SolveStatus::TimeLimit;
      break;
    }
    Node node = open.top();
    open.pop();
    if (node.bound >= incumbentObj - opts.gapTol) continue;  // pruned
    ++result.nodesExplored;
    obs::Heartbeats::instance().beat(obs::Pulse::MilpNodes);
    if ((result.nodesExplored & 255) == 0) {
      obs::FlightRecorder::instance().record(
          obs::FrEvent::MilpNodes, result.nodesExplored,
          static_cast<std::int64_t>(open.size()));
    }

    // Apply node bounds.
    std::vector<std::pair<VarId, std::pair<double, double>>> saved;
    saved.reserve(node.fixes.size());
    bool emptyDomain = false;
    for (const auto& f : node.fixes) {
      Variable& v = model.variable(f.var);
      saved.push_back({f.var, {v.lb, v.ub}});
      v.lb = std::max(v.lb, f.lb);
      v.ub = std::min(v.ub, f.ub);
      if (v.lb > v.ub) emptyDomain = true;
    }

    if (!emptyDomain) {
      // Give the relaxation only the remaining MILP budget, so one long
      // LP solve cannot blow through the solver's time limit.
      SimplexOptions sopts = opts.simplex;
      if (opts.timeLimitSec > 0) {
        const double left = opts.timeLimitSec - timer.seconds();
        sopts.timeLimitSec = sopts.timeLimitSec > 0
                                 ? std::min(sopts.timeLimitSec, left)
                                 : left;
      }
      const LpSolution relax = solveLp(model, sopts);
      result.lpPivots += relax.pivots;
      if (relax.status == SolveStatus::IterLimit) {
        // Numerical trouble, iteration exhaustion or the time budget: the
        // node is dropped but optimality may no longer be claimed.
        unresolvedNodes = true;
        unresolvedBound = std::min(unresolvedBound, node.bound);
      }
      if (relax.status == SolveStatus::Optimal) {
        const double bound = minimize * relax.objective;
        if (bound < incumbentObj - opts.gapTol) {
          const int branchVar = mostFractional(model, relax.x, opts.intTol);
          if (branchVar < 0) {
            tryIncumbent(relax.x);
          } else {
            if (opts.roundingHeuristic) {
              const auto rounded = opts.roundingHeuristic(model, relax.x);
              if (!rounded.empty()) tryIncumbent(rounded);
            }
            const double xv = relax.x[static_cast<std::size_t>(branchVar)];
            Node down = node;
            down.bound = bound;
            down.fixes.push_back(
                {branchVar, -infinity(), std::floor(xv)});
            Node up = node;
            up.bound = bound;
            up.fixes.push_back({branchVar, std::ceil(xv), infinity()});
            open.push(std::move(down));
            open.push(std::move(up));
          }
        }
      } else if (relax.status == SolveStatus::Unbounded) {
        // An unbounded relaxation at the root means the MILP is unbounded
        // (integrality cannot bound a cone). Deeper nodes inherit it.
        finalStatus = SolveStatus::Unbounded;
        // Restore bounds before leaving.
        for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
          model.variable(it->first).lb = it->second.first;
          model.variable(it->first).ub = it->second.second;
        }
        break;
      }
      // Infeasible or iteration-limited nodes are fathomed.
    }

    // Restore bounds.
    for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
      model.variable(it->first).lb = it->second.first;
      model.variable(it->first).ub = it->second.second;
    }
  }

  // Best bound: min over the incumbent, the remaining open nodes and the
  // nodes dropped unresolved.
  double openBound = std::min(incumbentObj, unresolvedBound);
  if (finalStatus != SolveStatus::Optimal) {
    // Remaining nodes hold the weakest proven bound.
    if (!open.empty()) openBound = std::min(openBound, open.top().bound);
  }
  result.bestBound = minimize * openBound;

  if (finalStatus == SolveStatus::Optimal && unresolvedNodes) {
    // Cannot certify optimality; say why the search stopped short.
    finalStatus = opts.timeLimitSec > 0 && timer.seconds() > opts.timeLimitSec
                      ? SolveStatus::TimeLimit
                      : SolveStatus::IterLimit;
  }
  if (finalStatus == SolveStatus::Optimal) {
    result.status =
        result.hasIncumbent ? SolveStatus::Optimal : SolveStatus::Infeasible;
  } else {
    result.status = finalStatus;
  }
  if (result.hasIncumbent) {
    result.objective = minimize * incumbentObj;
  }
  span.attr("status", toString(result.status));
  span.attr("nodes", static_cast<std::int64_t>(result.nodesExplored));
  span.attr("lp_pivots", static_cast<std::int64_t>(result.lpPivots));
  if (result.hasIncumbent) span.attr("objective", result.objective);
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("lp.milp.solves").add(1);
    reg->counter("lp.milp.nodes").add(result.nodesExplored);
    reg->counter("lp.milp.incumbents")
        .add(static_cast<std::int64_t>(result.incumbentTrail.size()));
    reg->histogram("lp.milp.nodes_per_solve", obs::expBuckets(1, 2, 20))
        .observe(static_cast<double>(result.nodesExplored));
  }
  return result;
}

}  // namespace rahtm::lp
