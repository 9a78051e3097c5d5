// Cross-validation of the Table II MILP: against exhaustive permutation
// search (with LP-optimal routing as the common metric), constraint
// semantics, symmetry breaking and budget behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.hpp"
#include "core/clustering.hpp"
#include "core/milp_mapper.hpp"
#include "core/subproblem.hpp"
#include "routing/lp_routing.hpp"
#include "topology/torus.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

/// Exhaustive optimum of min-over-placements of LP-optimal-routing MCL —
/// the same objective the MILP optimizes, so values must match exactly.
double exhaustiveLpMcl(const CommGraph& g, const Torus& cube) {
  const auto verts = static_cast<std::size_t>(g.numRanks());
  std::vector<NodeId> perm(static_cast<std::size_t>(cube.numNodes()));
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e300;
  do {
    const std::vector<NodeId> place(perm.begin(),
                                    perm.begin() + static_cast<long>(verts));
    const auto r = optimalMinimalMcl(cube, g, place);
    if (r.status == lp::SolveStatus::Optimal) best = std::min(best, r.mcl);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(MilpMapper, MatchesExhaustiveOnFig1) {
  // The Fig. 1 instance: the MILP must discover the diagonal placement.
  const Torus cube = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 1, 100);
  g.addExchange(0, 2, 1);
  g.addExchange(1, 3, 1);
  g.addExchange(2, 3, 1);
  const MilpMapResult r = milpMapToCube(g, cube);
  ASSERT_TRUE(r.solved);
  EXPECT_TRUE(r.provedOptimal);
  // Optimal split: heavy pair on the diagonal, 100 split over 2 paths, plus
  // light traffic: the optimum is ~51 (diagonal) not >= 100 (adjacent).
  EXPECT_NEAR(r.objective, exhaustiveLpMcl(g, cube), 1e-5);
  EXPECT_LT(r.objective, 60);
  // P0 and P1 must be diagonal (distance 2).
  EXPECT_EQ(cube.distance(r.vertexOf[0], r.vertexOf[1]), 2);
}

class MilpVsExhaustive : public ::testing::TestWithParam<int> {};

TEST_P(MilpVsExhaustive, OptimaAgreeOnRandomGraphs) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 911 + 17);
  const Torus cube = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  for (int i = 0; i < 5; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(4));
    const auto b = static_cast<RankId>(rng.nextBounded(4));
    if (a == b) continue;
    g.addFlow(a, b, 1 + static_cast<double>(rng.nextBounded(50)));
  }
  if (g.numFlows() == 0) g.addFlow(0, 1, 5);
  const MilpMapResult r = milpMapToCube(g, cube);
  ASSERT_TRUE(r.solved);
  ASSERT_TRUE(r.provedOptimal) << r.statusString;
  EXPECT_NEAR(r.objective, exhaustiveLpMcl(g, cube), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpVsExhaustive, ::testing::Range(0, 10));

TEST(MilpMapper, TwoAryTorusDoubleWideLinks) {
  // On a 2-ary torus ring the two parallel links halve the per-link load.
  const Torus cube = Torus::torus(Shape{2});
  CommGraph g(2);
  g.addFlow(0, 1, 100);
  const MilpMapResult r = milpMapToCube(g, cube);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.objective, 50.0, 1e-6);
  // Mesh version: a single link carries everything.
  const MilpMapResult rm = milpMapToCube(g, Torus::mesh(Shape{2}));
  ASSERT_TRUE(rm.solved);
  EXPECT_NEAR(rm.objective, 100.0, 1e-6);
}

TEST(MilpMapper, FewerClustersThanVertices) {
  const Torus cube = Torus::mesh(Shape{2, 2});
  CommGraph g(2);
  g.addFlow(0, 1, 10);
  const MilpMapResult r = milpMapToCube(g, cube);
  ASSERT_TRUE(r.solved);
  EXPECT_NE(r.vertexOf[0], r.vertexOf[1]);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);  // adjacent or diagonal both split? no:
  // adjacent: 10 on one link; diagonal: 5 per path. Optimum = 5.
  EXPECT_EQ(cube.distance(r.vertexOf[0], r.vertexOf[1]), 2);
}

TEST(MilpMapper, HopBytesObjectivePrefersAdjacency) {
  // Under the hop-bytes ablation the same instance places the heavy pair
  // adjacent (distance 1) — the exact opposite of the MCL objective.
  const Torus cube = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 1, 100);
  g.addExchange(0, 2, 1);
  g.addExchange(1, 3, 1);
  g.addExchange(2, 3, 1);
  MilpMapOptions opts;
  opts.hopBytesObjective = true;
  const MilpMapResult r = milpMapToCube(g, cube, opts);
  ASSERT_TRUE(r.solved);
  EXPECT_EQ(cube.distance(r.vertexOf[0], r.vertexOf[1]), 1);
}

TEST(MilpMapper, EmptyGraphIsTriviallyMapped) {
  const Torus cube = Torus::mesh(Shape{2, 2});
  const CommGraph g(4);
  const MilpMapResult r = milpMapToCube(g, cube);
  ASSERT_TRUE(r.solved);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
  // Assignment must still be a valid injection.
  std::vector<bool> used(4, false);
  for (const NodeId v : r.vertexOf) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 4);
    EXPECT_FALSE(used[static_cast<std::size_t>(v)]);
    used[static_cast<std::size_t>(v)] = true;
  }
}

TEST(MilpMapper, SymmetryBreakingPreservesOptimum) {
  const Torus cube = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 1, 9);
  g.addExchange(2, 3, 7);
  g.addExchange(1, 2, 3);
  MilpMapOptions withSym, without;
  without.breakSymmetry = false;
  const MilpMapResult a = milpMapToCube(g, cube, withSym);
  const MilpMapResult b = milpMapToCube(g, cube, without);
  ASSERT_TRUE(a.solved && b.solved);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  // Symmetry breaking must prune the tree.
  EXPECT_LE(a.nodesExplored, b.nodesExplored);
}

TEST(MilpMapper, RejectsOversizedGraphs) {
  const Torus cube = Torus::mesh(Shape{2});
  CommGraph g(3);
  g.addFlow(0, 1, 1);
  g.addFlow(1, 2, 1);
  EXPECT_THROW(milpMapToCube(g, cube), PreconditionError);
}

TEST(MilpMapper, ThreeCubeSparseInstance) {
  // A ring of 8 clusters on the 2-ary 3-cube: a Hamiltonian-cycle embedding
  // exists (Gray code), so every ring edge maps to distance 1 and the
  // optimal MCL equals the per-edge volume.
  const Torus cube = Torus::mesh(Shape{2, 2, 2});
  CommGraph g(8);
  for (RankId r = 0; r < 8; ++r) g.addFlow(r, (r + 1) % 8, 10);
  MilpMapOptions opts;
  opts.timeLimitSec = 5;  // the warm start already supplies the optimum;
                          // proving it would take much longer
  const MilpMapResult res = milpMapToCube(g, cube, opts);
  ASSERT_TRUE(res.solved) << res.statusString;
  // A Gray-code cycle embeds the ring at unit distance, so the incumbent
  // (greedy + DOR warm start, possibly improved by the search) reaches 10.
  EXPECT_NEAR(res.objective, 10.0, 1e-5);
  EXPECT_LE(res.bestBound, res.objective + 1e-6);
}

TEST(MilpMapper, BudgetStoppedRootReportsTimeLimitAndAnOpenBound) {
  // serve_mix's 3-D class: CG at 16 ranks, concentration 2, on the 2-ary
  // 3-cube. Its 8 clusters and 20 flows give a 605-variable model whose
  // root relaxation takes tens of seconds, so a short budget stops it
  // inside the root. The answer is the warm start, and the report must say
  // the budget ran out and that nothing below it was proven.
  const Workload cg = makeNasByName("CG", 16, NasParams{});
  const CommGraph g = bestTiling(cg.commGraph(), cg.logicalGrid, 2).coarseGraph;
  ASSERT_EQ(g.numRanks(), 8);
  ASSERT_EQ(g.numFlows(), 20u);
  MilpMapOptions opts;
  opts.timeLimitSec = 0.2;
  const MilpMapResult res = milpMapToCube(g, Torus::torus(Shape{2, 2, 2}), opts);
  ASSERT_TRUE(res.solved) << res.statusString;
  EXPECT_EQ(res.statusString, "time-limit");
  EXPECT_FALSE(res.provedOptimal);
  EXPECT_EQ(res.nodesExplored, 1);
  EXPECT_LT(res.bestBound, res.objective);
}

// ---- Portfolio dispatch -------------------------------------------------------

TEST(Subproblem, PortfolioAgreesAcrossMethods) {
  Rng rng(4242);
  const Torus cube = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 1, 40);
  g.addExchange(1, 2, 20);
  g.addExchange(2, 3, 10);

  SubproblemConfig milpCfg;
  milpCfg.milpMaxVerts = 4;  // force MILP
  SubproblemConfig exhCfg;
  exhCfg.milpMaxVerts = 0;  // force exhaustive
  SubproblemConfig annCfg;
  annCfg.milpMaxVerts = 0;
  annCfg.exhaustiveMaxVerts = 0;  // force annealing
  annCfg.annealRestarts = 8;
  annCfg.annealIters = 4000;

  const auto sMilp = solveSubproblem(g, cube, milpCfg);
  const auto sExh = solveSubproblem(g, cube, exhCfg);
  const auto sAnn = solveSubproblem(g, cube, annCfg);
  EXPECT_EQ(sMilp.method, "milp");
  EXPECT_EQ(sExh.method, "exhaustive");
  EXPECT_EQ(sAnn.method, "anneal");
  // Exhaustive and annealing share the oblivious metric, so on this tiny
  // instance they must find the same optimum.
  EXPECT_NEAR(sAnn.objective, sExh.objective, 1e-6);
  // The MILP optimizes the LP-split MCL, whose optimal placement may differ
  // slightly when re-scored under the oblivious model; it must still be
  // close, and under its own metric it must be at least as good.
  EXPECT_LE(sExh.objective, sMilp.objective + 1e-9);
  EXPECT_LE(sMilp.objective, sExh.objective * 1.25);
  const auto lpOfMilp = optimalMinimalMcl(cube, g, sMilp.vertexOf);
  const auto lpOfExh = optimalMinimalMcl(cube, g, sExh.vertexOf);
  ASSERT_EQ(lpOfMilp.status, lp::SolveStatus::Optimal);
  ASSERT_EQ(lpOfExh.status, lp::SolveStatus::Optimal);
  EXPECT_LE(lpOfMilp.mcl, lpOfExh.mcl + 1e-6);
}

TEST(Subproblem, ExhaustiveRefusesLargeCubes) {
  const CommGraph g(16);
  EXPECT_THROW(exhaustiveSearch(g, Torus::mesh(Shape{4, 4}), MapObjective::Mcl),
               PreconditionError);
}

TEST(Subproblem, AnnealHandlesMediumCube) {
  // 16-node cube with a strongly structured graph: annealing should land
  // close to the obvious optimum (neighbors adjacent).
  const Torus cube = Torus::mesh(Shape{2, 2, 2, 2});
  CommGraph g(16);
  for (RankId r = 0; r + 1 < 16; ++r) g.addExchange(r, r + 1, 10);
  SubproblemConfig cfg;
  cfg.annealRestarts = 4;
  cfg.annealIters = 8000;
  const auto s = annealSearch(g, cube, cfg);
  EXPECT_EQ(s.vertexOf.size(), 16u);
  // Each of 15 undirected chain edges (20 volume both ways)... a perfect
  // Gray-code embedding achieves MCL 20; allow some slack.
  EXPECT_LE(s.objective, 45.0);
}

}  // namespace
}  // namespace rahtm
