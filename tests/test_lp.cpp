// Tests for the LP/MILP solver stack: hand-checked LPs, randomized
// cross-validation against brute-force grid search, bounded variables,
// infeasible/unbounded detection, and branch-and-bound correctness against
// exhaustive enumeration of integer points.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "lp/milp.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"

namespace rahtm::lp {
namespace {

TEST(Model, CoalescesDuplicateTerms) {
  Model m;
  const VarId x = m.addContinuous("x", 0, 10);
  m.addConstraint("c", {{x, 1}, {x, 2}}, Sense::LessEq, 6);
  ASSERT_EQ(m.constraint(0).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.constraint(0).terms[0].coeff, 3);
}

TEST(Model, FeasibilityCheck) {
  Model m;
  const VarId x = m.addContinuous("x", 0, 2);
  const VarId y = m.addBinary("y");
  m.addConstraint("c", {{x, 1}, {y, 1}}, Sense::LessEq, 2);
  EXPECT_TRUE(m.isFeasible({1.0, 1.0}));
  EXPECT_FALSE(m.isFeasible({2.0, 1.0}));   // violates c
  EXPECT_FALSE(m.isFeasible({1.0, 0.5}));   // fractional binary
  EXPECT_FALSE(m.isFeasible({-0.5, 0.0}));  // bound
}

TEST(Simplex, SolvesTextbookLp) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 (Hillier-Lieberman):
  // optimum (2, 6) with value 36.
  Model m;
  const VarId x = m.addContinuous("x", 0, infinity(), 3);
  const VarId y = m.addContinuous("y", 0, infinity(), 5);
  m.setObjective(Objective::Maximize);
  m.addConstraint("c1", {{x, 1}}, Sense::LessEq, 4);
  m.addConstraint("c2", {{y, 2}}, Sense::LessEq, 12);
  m.addConstraint("c3", {{x, 3}, {y, 2}}, Sense::LessEq, 18);
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-7);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 6.0, 1e-7);
}

// The watchdog reads Pulse::SimplexPivots: a solve advances it by exactly
// the pivots it reports.
TEST(Simplex, PulseAdvancesByPivots) {
  obs::Heartbeats& hb = obs::Heartbeats::instance();
  const bool wasEnabled = hb.enabled();
  hb.setEnabled(true);
  Model m;
  const VarId x = m.addContinuous("x", 0, infinity(), 3);
  const VarId y = m.addContinuous("y", 0, infinity(), 5);
  m.setObjective(Objective::Maximize);
  m.addConstraint("c1", {{x, 1}}, Sense::LessEq, 4);
  m.addConstraint("c2", {{y, 2}}, Sense::LessEq, 12);
  m.addConstraint("c3", {{x, 3}, {y, 2}}, Sense::LessEq, 18);
  const std::uint64_t before = hb.value(obs::Pulse::SimplexPivots);
  const LpSolution s = solveLp(m);
  const std::uint64_t beats = hb.value(obs::Pulse::SimplexPivots) - before;
  hb.setEnabled(wasEnabled);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_GT(s.pivots, 0);
  EXPECT_EQ(beats, static_cast<std::uint64_t>(s.pivots));
}

// Each phase starts from a rebuilt tableau; with refactorEvery = 1 every
// pivot rebuilds it again. Both counts reach the metrics once per solve.
TEST(Simplex, CountsRefactorizations) {
  Model m;
  const VarId x = m.addContinuous("x", 0, 10, 1);
  const VarId y = m.addContinuous("y", 0, 10, 1);
  m.addConstraint("ge", {{x, 1}, {y, 1}}, Sense::GreaterEq, 3);
  m.addConstraint("eq", {{x, 1}, {y, -1}}, Sense::Equal, 1);
  SimplexOptions opts;
  opts.refactorEvery = 1;
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* prev = obs::metrics();
  obs::setMetrics(&reg);
  const LpSolution s = solveLp(m, opts);
  obs::setMetrics(prev);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
  EXPECT_GT(s.pivots, 0);
  EXPECT_EQ(s.refactorizations, s.pivots + 2);
  EXPECT_FALSE(s.singularBasis);
  EXPECT_EQ(reg.counter("lp.simplex.pivots").value(), s.pivots);
  EXPECT_EQ(reg.counter("lp.simplex.refactorizations").value(), s.pivots + 2);
  EXPECT_EQ(reg.counter("lp.simplex.singular_bases").value(), 0);

  // The default period rebuilds only at the two phase starts here.
  const LpSolution d = solveLp(m);
  EXPECT_EQ(d.pivots, s.pivots);
  EXPECT_EQ(d.refactorizations, 2);
}

TEST(Simplex, HandlesEqualityAndGreaterEq) {
  // min x + y st x + y >= 3, x - y == 1, 0 <= x,y <= 10 -> (2,1), value 3.
  Model m;
  const VarId x = m.addContinuous("x", 0, 10, 1);
  const VarId y = m.addContinuous("y", 0, 10, 1);
  m.addConstraint("ge", {{x, 1}, {y, 1}}, Sense::GreaterEq, 3);
  m.addConstraint("eq", {{x, 1}, {y, -1}}, Sense::Equal, 1);
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
  EXPECT_NEAR(s.x[0], 2.0, 1e-7);
  EXPECT_NEAR(s.x[1], 1.0, 1e-7);
}

TEST(Simplex, RespectsVariableUpperBounds) {
  // max x + y st x + y <= 10, x <= 3 (bound), y <= 4 (bound) -> 7.
  Model m;
  const VarId x = m.addContinuous("x", 0, 3, 1);
  const VarId y = m.addContinuous("y", 0, 4, 1);
  m.setObjective(Objective::Maximize);
  m.addConstraint("c", {{x, 1}, {y, 1}}, Sense::LessEq, 10);
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
}

TEST(Simplex, NonzeroLowerBounds) {
  // min x + 2y st x + y >= 5, x >= 1, y >= 2 -> x=3, y=2, value 7.
  Model m;
  const VarId x = m.addContinuous("x", 1, infinity(), 1);
  const VarId y = m.addContinuous("y", 2, infinity(), 2);
  m.addConstraint("c", {{x, 1}, {y, 1}}, Sense::GreaterEq, 5);
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-7);
  EXPECT_NEAR(s.x[0], 3.0, 1e-7);
}

TEST(Simplex, DetectsInfeasible) {
  Model m;
  const VarId x = m.addContinuous("x", 0, 1, 1);
  m.addConstraint("c", {{x, 1}}, Sense::GreaterEq, 2);
  EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded) {
  Model m;
  const VarId x = m.addContinuous("x", 0, infinity(), 1);
  const VarId y = m.addContinuous("y", 0, infinity(), 0);
  m.setObjective(Objective::Maximize);
  m.addConstraint("c", {{x, 1}, {y, -1}}, Sense::LessEq, 1);
  EXPECT_EQ(solveLp(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, EmptyConstraintSetUsesBounds) {
  Model m;
  m.addContinuous("x", -0.0, 5, -2);  // minimize -2x -> x = 5
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -10.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degeneracy: multiple redundant constraints through one vertex.
  Model m;
  const VarId x = m.addContinuous("x", 0, infinity(), -1);
  const VarId y = m.addContinuous("y", 0, infinity(), -1);
  m.addConstraint("c1", {{x, 1}, {y, 1}}, Sense::LessEq, 1);
  m.addConstraint("c2", {{x, 2}, {y, 2}}, Sense::LessEq, 2);
  m.addConstraint("c3", {{x, 1}}, Sense::LessEq, 1);
  m.addConstraint("c4", {{y, 1}}, Sense::LessEq, 1);
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-7);
}

/// Randomized cross-check: on box-bounded 2-variable LPs the optimum can be
/// found by dense grid search; the simplex must match to grid resolution.
class SimplexRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomized, MatchesGridSearch) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  Model m;
  const VarId x = m.addContinuous("x", 0, 4, rng.nextInt(-5, 5));
  const VarId y = m.addContinuous("y", 0, 4, rng.nextInt(-5, 5));
  const int rows = static_cast<int>(rng.nextInt(1, 4));
  std::vector<std::array<double, 3>> cons;
  for (int i = 0; i < rows; ++i) {
    const double a = static_cast<double>(rng.nextInt(-3, 3));
    const double b = static_cast<double>(rng.nextInt(-3, 3));
    // rhs chosen so the origin is feasible: a*0 + b*0 <= rhs with rhs >= 0.
    const double rhs = static_cast<double>(rng.nextInt(0, 12));
    m.addConstraint(std::string("c") + std::to_string(i), {{x, a}, {y, b}},
                    Sense::LessEq, rhs);
    cons.push_back({a, b, rhs});
  }
  const LpSolution s = solveLp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);

  // Dense grid search over the box.
  double best = 1e300;
  const int steps = 400;
  for (int i = 0; i <= steps; ++i) {
    for (int j = 0; j <= steps; ++j) {
      const double xv = 4.0 * i / steps;
      const double yv = 4.0 * j / steps;
      bool ok = true;
      for (const auto& c : cons) ok &= (c[0] * xv + c[1] * yv <= c[2] + 1e-9);
      if (!ok) continue;
      const double obj =
          m.variable(x).objCoeff * xv + m.variable(y).objCoeff * yv;
      best = std::min(best, obj);
    }
  }
  EXPECT_LE(s.objective, best + 1e-6);       // simplex at least as good
  EXPECT_GE(s.objective, best - 0.15);       // and grid nearly matches it
  EXPECT_TRUE(m.isFeasible(s.x, 1e-6));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomized, ::testing::Range(0, 30));

// ---- MILP -------------------------------------------------------------------

TEST(Milp, SolvesPureBinaryKnapsack) {
  // max 5a + 4b + 3c st 2a + 3b + c <= 4 -> a=1, c=1: 8... check: a+c uses
  // 3 <= 4; adding b exceeds. Optimal 5+3=8? a,b: 2+3=5 > 4. Yes: 8.
  Model m;
  const VarId a = m.addBinary("a", 5);
  const VarId b = m.addBinary("b", 4);
  const VarId c = m.addBinary("c", 3);
  m.setObjective(Objective::Maximize);
  m.addConstraint("w", {{a, 2}, {b, 3}, {c, 1}}, Sense::LessEq, 4);
  const MilpSolution s = solveMilp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-6);
  EXPECT_NEAR(s.x[a], 1.0, 1e-6);
  EXPECT_NEAR(s.x[b], 0.0, 1e-6);
  EXPECT_NEAR(s.x[c], 1.0, 1e-6);
}

// The watchdog reads Pulse::MilpNodes: a branch-and-bound search advances
// it by exactly the nodes it explores, and Pulse::SimplexPivots by the
// pivots of all its relaxations.
TEST(Milp, PulsesAdvanceByNodesAndPivots) {
  obs::Heartbeats& hb = obs::Heartbeats::instance();
  const bool wasEnabled = hb.enabled();
  hb.setEnabled(true);
  Model m;
  std::vector<VarId> v;
  const double value[] = {9, 7, 6, 5, 4, 3};
  const double weight[] = {5, 4, 4, 3, 3, 2};
  std::vector<Term> terms;
  for (int i = 0; i < 6; ++i) {
    v.push_back(m.addBinary(std::string("b") + std::to_string(i), value[i]));
    terms.push_back({v.back(), weight[i]});
  }
  m.setObjective(Objective::Maximize);
  m.addConstraint("w", terms, Sense::LessEq, 10);
  const std::uint64_t nodesBefore = hb.value(obs::Pulse::MilpNodes);
  const std::uint64_t pivotsBefore = hb.value(obs::Pulse::SimplexPivots);
  const MilpSolution s = solveMilp(m);
  const std::uint64_t nodes = hb.value(obs::Pulse::MilpNodes) - nodesBefore;
  const std::uint64_t pivots =
      hb.value(obs::Pulse::SimplexPivots) - pivotsBefore;
  hb.setEnabled(wasEnabled);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_GT(s.nodesExplored, 1);
  EXPECT_EQ(nodes, static_cast<std::uint64_t>(s.nodesExplored));
  EXPECT_EQ(pivots, static_cast<std::uint64_t>(s.lpPivots));
}

TEST(Milp, IntegralityChangesOptimum) {
  // max x st 2x <= 3: LP gives 1.5, integer gives 1.
  Model m;
  const VarId x = m.addVariable("x", 0, 10, VarType::Integer, 1);
  m.setObjective(Objective::Maximize);
  m.addConstraint("c", {{x, 2}}, Sense::LessEq, 3);
  const MilpSolution s = solveMilp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(Milp, MixedIntegerContinuous) {
  // min 3y + x st x + y >= 2.5, y integer, x <= 1 -> y=2, x=0.5: 6.5.
  Model m;
  const VarId x = m.addContinuous("x", 0, 1, 1);
  const VarId y = m.addVariable("y", 0, 10, VarType::Integer, 3);
  m.addConstraint("c", {{x, 1}, {y, 1}}, Sense::GreaterEq, 2.5);
  const MilpSolution s = solveMilp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);
  EXPECT_NEAR(s.objective, 6.5, 1e-6);
}

TEST(Milp, DetectsInfeasible) {
  Model m;
  const VarId x = m.addBinary("x", 1);
  const VarId y = m.addBinary("y", 1);
  m.addConstraint("c", {{x, 1}, {y, 1}}, Sense::GreaterEq, 3);
  EXPECT_EQ(solveMilp(m).status, SolveStatus::Infeasible);
}

TEST(Milp, RespectsNodeBudget) {
  // A small assignment-style model with a tiny node budget still returns
  // gracefully (status NodeLimit or Optimal, never a crash).
  Model m;
  std::vector<VarId> v;
  for (int i = 0; i < 12; ++i) {
    v.push_back(m.addBinary(std::string("b") + std::to_string(i), 1));
  }
  m.setObjective(Objective::Maximize);
  for (int i = 0; i < 4; ++i) {
    m.addConstraint("row" + std::to_string(i),
                    {{v[3 * i], 1}, {v[3 * i + 1], 1}, {v[3 * i + 2], 1}},
                    Sense::LessEq, 1);
  }
  MilpOptions opts;
  opts.maxNodes = 3;
  const MilpSolution s = solveMilp(m, opts);
  EXPECT_TRUE(s.status == SolveStatus::NodeLimit ||
              s.status == SolveStatus::Optimal);
}

TEST(Milp, UnresolvedRootKeepsItsBound) {
  // Four rows of three binaries, each row holding at most one; minimizing
  // -sum, the relaxation needs several pivots. One pivot is not enough, so
  // the root is dropped unresolved: its subtree was never searched, and
  // the warm start (all zero) must not be reported as a proven bound.
  Model m;
  std::vector<VarId> v;
  for (int i = 0; i < 12; ++i) {
    v.push_back(m.addBinary(std::string("b") + std::to_string(i), -1));
  }
  for (int i = 0; i < 4; ++i) {
    m.addConstraint("row" + std::to_string(i),
                    {{v[3 * i], 1}, {v[3 * i + 1], 1}, {v[3 * i + 2], 1}},
                    Sense::LessEq, 1);
  }
  MilpOptions opts;
  opts.simplex.maxIterations = 1;
  opts.warmStart.assign(12, 0.0);
  const MilpSolution s = solveMilp(m, opts);
  ASSERT_TRUE(s.hasIncumbent);
  EXPECT_EQ(s.objective, 0.0);
  EXPECT_EQ(s.nodesExplored, 1);
  EXPECT_EQ(s.status, SolveStatus::IterLimit);
  EXPECT_LT(s.bestBound, s.objective);
  // With the pivots it needs, the same model closes its gap at -4.
  const MilpSolution full = solveMilp(m);
  ASSERT_EQ(full.status, SolveStatus::Optimal);
  EXPECT_NEAR(full.objective, -4.0, 1e-9);
  EXPECT_NEAR(full.bestBound, -4.0, 1e-9);
}

/// Randomized MILP vs exhaustive enumeration of binary points.
class MilpRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomized, MatchesExhaustiveEnumeration) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  const int nvars = 6;
  Model m;
  std::vector<VarId> vars;
  std::vector<double> costs;
  for (int i = 0; i < nvars; ++i) {
    const double c = static_cast<double>(rng.nextInt(-4, 4));
    vars.push_back(m.addBinary(std::string("b") + std::to_string(i), c));
    costs.push_back(c);
  }
  const int rows = static_cast<int>(rng.nextInt(1, 3));
  std::vector<std::vector<double>> rowCoeffs;
  std::vector<double> rowRhs;
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    std::vector<double> coeffs;
    for (int i = 0; i < nvars; ++i) {
      const double a = static_cast<double>(rng.nextInt(-2, 3));
      coeffs.push_back(a);
      if (a != 0) terms.push_back({vars[static_cast<std::size_t>(i)], a});
    }
    const double rhs = static_cast<double>(rng.nextInt(0, 6));
    m.addConstraint(std::string("r") + std::to_string(r), terms, Sense::LessEq,
                    rhs);
    rowCoeffs.push_back(coeffs);
    rowRhs.push_back(rhs);
  }
  const MilpSolution s = solveMilp(m);
  ASSERT_EQ(s.status, SolveStatus::Optimal);  // all-zero is always feasible

  double best = 1e300;
  for (int mask = 0; mask < (1 << nvars); ++mask) {
    bool ok = true;
    for (int r = 0; r < rows && ok; ++r) {
      double lhs = 0;
      for (int i = 0; i < nvars; ++i) {
        if (mask & (1 << i)) lhs += rowCoeffs[r][static_cast<std::size_t>(i)];
      }
      ok = lhs <= rowRhs[static_cast<std::size_t>(r)] + 1e-9;
    }
    if (!ok) continue;
    double obj = 0;
    for (int i = 0; i < nvars; ++i) {
      if (mask & (1 << i)) obj += costs[static_cast<std::size_t>(i)];
    }
    best = std::min(best, obj);
  }
  EXPECT_NEAR(s.objective, best, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRandomized, ::testing::Range(0, 25));

}  // namespace
}  // namespace rahtm::lp
