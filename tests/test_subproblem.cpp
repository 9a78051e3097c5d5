// Tests for the phase-2 solver portfolio: dispatch clamping, the annealing
// move set on partially-filled cubes, cross-method agreement, and the
// anneal's acceptance bar (pinned outputs, the bar's margin, heartbeats).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/clustering.hpp"
#include "core/subproblem.hpp"
#include "exec/thread_pool.hpp"
#include "graph/comm_graph.hpp"
#include "obs/heartbeat.hpp"
#include "topology/torus.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

CommGraph chain(RankId n, Volume bytes) {
  CommGraph g(n);
  for (RankId r = 0; r + 1 < n; ++r) g.addExchange(r, r + 1, bytes);
  return g;
}

TEST(SubproblemDispatch, OversizedExhaustiveCapClampsToAnneal) {
  // A user raising exhaustiveMaxVerts past the 9-node feasibility cap must
  // get the annealing fallback, not a mid-pipeline abort.
  const Torus cube = Torus::mesh(Shape{12});
  const CommGraph g = chain(12, 10);
  SubproblemConfig cfg;
  cfg.milpMaxVerts = 0;
  cfg.exhaustiveMaxVerts = 16;  // > kExhaustiveNodeCap, covers the 12-cube
  cfg.annealIters = 2000;
  SubproblemSolution sol;
  ASSERT_NO_THROW(sol = solveSubproblem(g, cube, cfg));
  EXPECT_EQ(sol.method, "anneal");
  EXPECT_EQ(sol.vertexOf.size(), 12u);
}

TEST(SubproblemDispatch, ExhaustiveStillUsedWithinTheCap) {
  const Torus cube = Torus::mesh(Shape{2, 2, 2});
  const CommGraph g = chain(8, 10);
  SubproblemConfig cfg;
  cfg.milpMaxVerts = 0;
  cfg.exhaustiveMaxVerts = 16;  // clamped to 9; the 8-cube still qualifies
  const SubproblemSolution sol = solveSubproblem(g, cube, cfg);
  EXPECT_EQ(sol.method, "exhaustive");
}

TEST(SubproblemDispatch, ExhaustiveSearchRejectsOversizedCube) {
  // The solver's own guard is unchanged — only the dispatch clamps.
  const Torus cube = Torus::mesh(Shape{10});
  EXPECT_THROW(exhaustiveSearch(chain(10, 1), cube, MapObjective::Mcl),
               PreconditionError);
}

TEST(AnnealSearch, ReachesNodesOutsideTheInitialPrefix) {
  // Two heavy communicators on a 4-node line, hop-bytes objective: the
  // optimum needs adjacent nodes. Swap moves alone cannot leave the two
  // nodes picked by the initial random prefix, so restarts seeded with a
  // non-adjacent pair would be stuck without the relocation move.
  const Torus cube = Torus::mesh(Shape{4});
  CommGraph g(2);
  g.addExchange(0, 1, 100);
  SubproblemConfig cfg;
  cfg.objective = MapObjective::HopBytes;
  cfg.annealRestarts = 4;
  cfg.annealIters = 3000;
  const SubproblemSolution sol = annealSearch(g, cube, cfg);
  // Optimal hop-bytes: both directions of one hop = 2 * 100.
  EXPECT_DOUBLE_EQ(sol.objective, 200.0);
  ASSERT_EQ(sol.vertexOf.size(), 2u);
  EXPECT_EQ(std::abs(sol.vertexOf[0] - sol.vertexOf[1]), 1);
  EXPECT_DOUBLE_EQ(
      evalPlacement(g, cube, sol.vertexOf, MapObjective::HopBytes),
      sol.objective);
}

TEST(AnnealSearch, SingleVertexOnSingleNodeTerminates) {
  // No move exists at all; the search must not spin or throw.
  const Torus cube = Torus::mesh(Shape{1});
  CommGraph g(1);
  SubproblemConfig cfg;
  cfg.annealIters = 1000;
  const SubproblemSolution sol = annealSearch(g, cube, cfg);
  ASSERT_EQ(sol.vertexOf.size(), 1u);
  EXPECT_EQ(sol.vertexOf[0], 0);
  EXPECT_EQ(sol.iterations, 0);
}

TEST(AnnealSearch, SingleVertexRelocatesOnLargerCube) {
  // One vertex, several nodes: every move is a relocation; must terminate
  // with a valid node and zero objective (no flows).
  const Torus cube = Torus::mesh(Shape{2, 2});
  CommGraph g(1);
  SubproblemConfig cfg;
  cfg.annealIters = 500;
  const SubproblemSolution sol = annealSearch(g, cube, cfg);
  ASSERT_EQ(sol.vertexOf.size(), 1u);
  EXPECT_GE(sol.vertexOf[0], 0);
  EXPECT_LT(sol.vertexOf[0], 4);
  EXPECT_GT(sol.iterations, 0);
}

TEST(AnnealSearch, ObjectiveMatchesReportedPlacement) {
  const Torus cube = Torus::torus(Shape{4, 2});
  Rng rng(7);
  CommGraph g(6);  // partially filled: 6 verts on 8 nodes
  for (int i = 0; i < 14; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(6));
    const auto b = static_cast<RankId>(rng.nextBounded(6));
    if (a != b) g.addFlow(a, b, 1 + static_cast<double>(rng.nextBounded(30)));
  }
  for (const MapObjective obj : {MapObjective::Mcl, MapObjective::HopBytes}) {
    SubproblemConfig cfg;
    cfg.objective = obj;
    cfg.annealRestarts = 3;
    cfg.annealIters = 2000;
    const SubproblemSolution sol = annealSearch(g, cube, cfg);
    EXPECT_NEAR(evalPlacement(g, cube, sol.vertexOf, obj), sol.objective,
                1e-9);
    // All assigned nodes distinct and in range.
    std::vector<bool> used(8, false);
    for (const NodeId n : sol.vertexOf) {
      ASSERT_GE(n, 0);
      ASSERT_LT(n, 8);
      EXPECT_FALSE(used[static_cast<std::size_t>(n)]);
      used[static_cast<std::size_t>(n)] = true;
    }
  }
}

TEST(SubproblemPortfolio, MethodsAgreeOnPartiallyFilledCube) {
  // 3 verts on a 2x2 mesh: exhaustive is exact; annealing (with the
  // relocation move) and the MILP must match its optimum.
  const Torus cube = Torus::mesh(Shape{2, 2});
  const CommGraph g = chain(3, 10);

  const SubproblemSolution ex =
      exhaustiveSearch(g, cube, MapObjective::Mcl);

  SubproblemConfig annealCfg;
  annealCfg.annealRestarts = 6;
  annealCfg.annealIters = 4000;
  const SubproblemSolution an = annealSearch(g, cube, annealCfg);
  EXPECT_NEAR(an.objective, ex.objective, 1e-9);

  SubproblemConfig milpCfg;
  milpCfg.milpMaxVerts = 4;
  const SubproblemSolution milp = solveSubproblem(g, cube, milpCfg);
  EXPECT_EQ(milp.method, "milp");
  EXPECT_NEAR(milp.objective, ex.objective, 1e-6);
}

TEST(SubproblemPortfolio, MethodsAgreeOnPartiallyFilledCubeHopBytes) {
  const Torus cube = Torus::mesh(Shape{2, 2, 2});
  const CommGraph g = chain(5, 7);
  const SubproblemSolution ex =
      exhaustiveSearch(g, cube, MapObjective::HopBytes);
  SubproblemConfig cfg;
  cfg.objective = MapObjective::HopBytes;
  cfg.annealRestarts = 6;
  cfg.annealIters = 6000;
  const SubproblemSolution an = annealSearch(g, cube, cfg);
  EXPECT_NEAR(an.objective, ex.objective, 1e-9);
}

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

/// One seeded anneal whose outputs were recorded before the acceptance
/// bar existed.
struct PinnedAnneal {
  const char* name;
  Torus cube;
  CommGraph graph;
  std::vector<NodeId> vertexOf;
  std::uint64_t objectiveBits;
  std::uint64_t commits;
};

std::vector<PinnedAnneal> pinnedAnneals() {
  std::vector<PinnedAnneal> cases;
  {
    // The graph the pin phase anneals for cg64: NAS CG's 64 ranks
    // contracted two to a node into 32 clusters.
    const Workload cg = makeCG(64);
    cases.push_back({"cg64 clusters", Torus::torus(Shape{2, 2, 2, 2, 2}),
                     bestTiling(cg.commGraph(), cg.logicalGrid, 2).coarseGraph,
                     {24, 9,  28, 30, 8, 12, 10, 14, 1, 18, 25,
                      27, 13, 31, 0,  26, 16, 17, 20, 21, 2, 11,
                      5,  19, 4,  3,  29, 7,  6,  15, 22, 23},
                     0x40baaaaaaaaaaaadull, 2734});
  }
  {
    Rng rng(0xa11);
    CommGraph g(16);
    for (int i = 0; i < 48; ++i) {
      g.addFlow(static_cast<RankId>(rng.nextBounded(16)),
                static_cast<RankId>(rng.nextBounded(16)),
                static_cast<double>(rng.nextBounded(64) + 1) * 512.0);
    }
    cases.push_back({"2-ary 4-mesh", Torus::mesh(Shape{2, 2, 2, 2}), g,
                     {11, 4, 3, 12, 8, 5, 10, 1, 14, 6, 9, 13, 0, 7, 15, 2},
                     0x40e4800000000000ull, 2016});
  }
  {
    // 11 vertices on 16 nodes: relocations to empty nodes (probeMove).
    Rng rng(0xb22);
    CommGraph g(11);
    for (int i = 0; i < 30; ++i) {
      g.addFlow(static_cast<RankId>(rng.nextBounded(11)),
                static_cast<RankId>(rng.nextBounded(11)),
                static_cast<double>(rng.nextBounded(40) + 1) * 100.0);
    }
    cases.push_back({"partially filled", Torus::torus(Shape{2, 2, 2, 2}), g,
                     {10, 11, 0, 14, 6, 4, 12, 13, 8, 3, 7},
                     0x4099215555555552ull, 1913});
  }
  {
    // Every placement of a complete uniform graph on a vertex-transitive
    // torus loads the channels alike: every probe is a tie.
    CommGraph g(16);
    for (RankId a = 0; a < 16; ++a) {
      for (RankId b = 0; b < 16; ++b) g.addFlow(a, b, 4096);
    }
    cases.push_back({"complete uniform", Torus::torus(Shape{2, 2, 2, 2}), g,
                     {12, 11, 8, 7, 13, 5, 6, 3, 4, 15, 14, 10, 0, 1, 9, 2},
                     0x40d000000000000bull, 12000});
  }
  return cases;
}

SubproblemConfig pinnedAnnealConfig() {
  SubproblemConfig cfg;
  cfg.annealRestarts = 3;
  cfg.annealIters = 4000;
  return cfg;
}

// Seeded anneals return exactly what they returned before the acceptance
// bar existed, serially and on a 4-thread pool: the best placement, the
// objective bit for bit, the commits and the iterations. A probe cut at
// the bar must be rejected exactly where the full probe would have been,
// consuming the same random draw.
TEST(AnnealSearch, PinnedOutputsAtOneAndFourThreads) {
  const SubproblemConfig cfg = pinnedAnnealConfig();
  exec::ThreadPool pool(4);
  for (const PinnedAnneal& c : pinnedAnneals()) {
    for (exec::ThreadPool* p :
         {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
      const SubproblemSolution s = annealSearch(c.graph, c.cube, cfg, p);
      const char* threads = p == nullptr ? " serial" : " on 4 threads";
      EXPECT_EQ(s.vertexOf, c.vertexOf) << c.name << threads;
      EXPECT_EQ(bitsOf(s.objective), c.objectiveBits) << c.name << threads;
      EXPECT_EQ(s.commits, c.commits) << c.name << threads;
      EXPECT_EQ(s.iterations, 12000) << c.name << threads;
      EXPECT_EQ(s.probes, 12000u) << c.name << threads;
    }
  }
}

// Every candidate above the acceptance bar fails the anneal's Metropolis
// test as written in the loop, for random objectives, temperatures and
// draws, including u = 0, u next to 1 and c0 = 0: the margin covers the
// rounding of exp, log and the subtraction.
TEST(AnnealSearch, AcceptanceBarRejectsEveryCandidateAboveIt) {
  const auto accepts = [](double delta, double tie, double temp, double u) {
    return delta <= tie || u < std::exp(-delta / temp);
  };
  Rng rng(99);
  const double ulp = 0x1.0p-53;  // nextDouble()'s resolution
  for (int trial = 0; trial < 200000; ++trial) {
    const double scale =
        std::ldexp(1.0, static_cast<int>(rng.nextBounded(60)) - 20);
    double c0 = scale * rng.nextDouble();
    if (trial % 7 == 0) c0 = 0;
    // Cooling from a quarter of the initial objective, down to 1e-4 of it.
    const double temp = std::max(1e-9, scale * rng.nextDouble() * 0.25) *
                        std::pow(1e-4, rng.nextDouble());
    double u = static_cast<double>(rng.next() >> 11) * ulp;
    switch (trial % 5) {
      case 0: u = 0; break;
      case 1: u = 1 - ulp * static_cast<double>(1 + rng.nextBounded(8)); break;
      case 2: u = ulp * static_cast<double>(1 + rng.nextBounded(8)); break;
      default: break;
    }
    const double tie = 1e-9 * std::max(1.0, c0);
    const double bar = annealAcceptanceBar(c0, tie, temp, u);
    if (u == 0) {
      EXPECT_EQ(bar, std::numeric_limits<double>::infinity());
      continue;
    }
    // Not loose: within 2e-12 of the exact acceptance edge.
    const double edge = c0 + std::max(tie, -temp * std::log(u));
    ASSERT_LE(bar, edge + 2e-12 * (edge + temp)) << trial;
    double cand = std::nextafter(bar, std::numeric_limits<double>::infinity());
    for (int k = 0; k < 4; ++k) {
      ASSERT_FALSE(accepts(cand - c0, tie, temp, u))
          << "c0 " << c0 << " temp " << temp << " u " << u << " cand " << cand;
      cand = std::nextafter(cand, std::numeric_limits<double>::infinity());
    }
    ASSERT_FALSE(accepts(bar * 1.5 + 1 - c0, tie, temp, u));
  }
}

// Cut work still beats the watchdog: over one 20,000-move anneal of the
// cg64 graph, where most probes are cut at the bar, the AnnealIterations
// pulse advances exactly as it did before the bar existed (one beat of 64
// per 64 iterations).
TEST(AnnealSearch, CutProbesStillAdvanceThePulse) {
  const PinnedAnneal c = pinnedAnneals().front();
  SubproblemConfig cfg;
  cfg.annealRestarts = 1;
  cfg.annealIters = 20000;
  obs::Heartbeats& hb = obs::Heartbeats::instance();
  const std::uint64_t before = hb.value(obs::Pulse::AnnealIterations);
  const SubproblemSolution s = annealSearch(c.graph, c.cube, cfg);
  EXPECT_EQ(hb.value(obs::Pulse::AnnealIterations) - before, 20032u);
  EXPECT_EQ(s.commits, 4504u);
  EXPECT_GT(2 * s.cuts, s.probes);
}

}  // namespace
}  // namespace rahtm
