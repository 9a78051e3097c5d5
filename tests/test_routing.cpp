// Tests for the channel-load machinery: uniform-minimal (MAR approximation)
// loads with exact path counting, dimension-order routing, conservation
// invariants, the double-wide 2-ary torus links, the paper's Fig. 1
// motivating example, and the optimal-routing LP.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/comm_graph.hpp"
#include "routing/channel_load.hpp"
#include "routing/lp_routing.hpp"
#include "graph/stats.hpp"
#include "routing/oblivious.hpp"
#include "topology/torus.hpp"

namespace rahtm {
namespace {

TEST(PathCount, MatchesMultinomials) {
  const Torus m = Torus::mesh(Shape{4, 4});
  // (0,0) -> (2,3): C(5,2) = 10 paths.
  EXPECT_DOUBLE_EQ(countMinimalPaths(m, Coord{0, 0}, Coord{2, 3}), 10.0);
  // Same node: one (empty) path.
  EXPECT_DOUBLE_EQ(countMinimalPaths(m, Coord{1, 1}, Coord{1, 1}), 1.0);
  // 1D: single path.
  EXPECT_DOUBLE_EQ(countMinimalPaths(m, Coord{0, 0}, Coord{3, 0}), 1.0);
}

TEST(PathCount, TorusTiesDoubleTheFamilies) {
  const Torus t = Torus::torus(Shape{4});
  // 0 -> 2: distance 2 both ways: two path families of one path each.
  EXPECT_DOUBLE_EQ(countMinimalPaths(t, Coord{0}, Coord{2}), 2.0);
  const Torus t2 = Torus::torus(Shape{4, 4});
  // (0,0)->(2,2): both dims tie: 4 combos x C(4,2)=6 paths = 24.
  EXPECT_DOUBLE_EQ(countMinimalPaths(t2, Coord{0, 0}, Coord{2, 2}), 24.0);
}

TEST(UniformMinimal, SplitsEvenlyAcrossTwoPaths) {
  const Torus m = Torus::mesh(Shape{2, 2});
  ChannelLoadMap loads(m);
  accumulateUniformMinimal(m, Coord{0, 0}, Coord{1, 1}, 100, loads);
  // Two L-paths, each carrying 50 on both of its links.
  const NodeId n00 = m.nodeId(Coord{0, 0});
  const NodeId n01 = m.nodeId(Coord{0, 1});
  const NodeId n10 = m.nodeId(Coord{1, 0});
  EXPECT_DOUBLE_EQ(loads.load(m.channelId(n00, 0, Dir::Plus)), 50);
  EXPECT_DOUBLE_EQ(loads.load(m.channelId(n00, 1, Dir::Plus)), 50);
  EXPECT_DOUBLE_EQ(loads.load(m.channelId(n10, 1, Dir::Plus)), 50);
  EXPECT_DOUBLE_EQ(loads.load(m.channelId(n01, 0, Dir::Plus)), 50);
  EXPECT_DOUBLE_EQ(loads.maxLoad(), 50);
  EXPECT_DOUBLE_EQ(loads.totalLoad(), 200);  // volume * hops
}

TEST(UniformMinimal, TorusTieSplitsAcrossDirections) {
  const Torus t = Torus::torus(Shape{4});
  ChannelLoadMap loads(t);
  accumulateUniformMinimal(t, Coord{0}, Coord{2}, 80, loads);
  EXPECT_DOUBLE_EQ(loads.load(t.channelId(0, 0, Dir::Plus)), 40);
  EXPECT_DOUBLE_EQ(loads.load(t.channelId(1, 0, Dir::Plus)), 40);
  EXPECT_DOUBLE_EQ(loads.load(t.channelId(0, 0, Dir::Minus)), 40);
  EXPECT_DOUBLE_EQ(loads.load(t.channelId(3, 0, Dir::Minus)), 40);
  EXPECT_DOUBLE_EQ(loads.totalLoad(), 160);
}

TEST(UniformMinimal, TwoAryTorusUsesBothPhysicalLinks) {
  // The "double-wide link" of §III-C: a 2-ary torus dimension spreads the
  // flow across both parallel physical channels.
  const Torus t = Torus::torus(Shape{2});
  ChannelLoadMap loads(t);
  accumulateUniformMinimal(t, Coord{0}, Coord{1}, 100, loads);
  EXPECT_DOUBLE_EQ(loads.load(t.channelId(0, 0, Dir::Plus)), 50);
  EXPECT_DOUBLE_EQ(loads.load(t.channelId(0, 0, Dir::Minus)), 50);
  EXPECT_DOUBLE_EQ(loads.maxLoad(), 50);
}

/// Conservation property: a flow's total channel load equals volume * hops,
/// on randomized topologies and endpoints.
class UniformMinimalConservation : public ::testing::TestWithParam<int> {};

TEST_P(UniformMinimalConservation, TotalLoadEqualsVolumeTimesHops) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const std::vector<Shape> shapes = {
      Shape{4, 4},        Shape{8},          Shape{2, 2, 2, 2},
      Shape{4, 4, 4, 2},  Shape{3, 5},       Shape{4, 2, 6},
  };
  const Shape shape = shapes[GetParam() % shapes.size()];
  const bool wrap = (GetParam() / 2) % 2 == 0;
  const Torus t = wrap ? Torus::torus(shape) : Torus::mesh(shape);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = static_cast<NodeId>(rng.nextBounded(
        static_cast<std::uint64_t>(t.numNodes())));
    const auto b = static_cast<NodeId>(rng.nextBounded(
        static_cast<std::uint64_t>(t.numNodes())));
    ChannelLoadMap loads(t);
    const double vol = 1 + static_cast<double>(rng.nextBounded(100));
    accumulateUniformMinimal(t, t.coordOf(a), t.coordOf(b), vol, loads);
    EXPECT_NEAR(loads.totalLoad(), vol * t.distance(a, b), 1e-9 * vol)
        << t.describe() << " " << a << "->" << b;
    // No channel carries more than the full volume or less than zero.
    for (const double v : loads.raw()) {
      EXPECT_GE(v, 0);
      EXPECT_LE(v, vol + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, UniformMinimalConservation,
                         ::testing::Range(0, 12));

TEST(DimensionOrder, FollowsSinglePath) {
  const Torus m = Torus::mesh(Shape{4, 4});
  ChannelLoadMap loads(m);
  accumulateDimensionOrder(m, Coord{0, 0}, Coord{2, 1}, 10, loads);
  // Dim 0 first: (0,0)->(1,0)->(2,0), then dim 1: (2,0)->(2,1).
  EXPECT_DOUBLE_EQ(loads.load(m.channelId(m.nodeId(Coord{0, 0}), 0, Dir::Plus)), 10);
  EXPECT_DOUBLE_EQ(loads.load(m.channelId(m.nodeId(Coord{1, 0}), 0, Dir::Plus)), 10);
  EXPECT_DOUBLE_EQ(loads.load(m.channelId(m.nodeId(Coord{2, 0}), 1, Dir::Plus)), 10);
  EXPECT_DOUBLE_EQ(loads.totalLoad(), 30);
  EXPECT_DOUBLE_EQ(loads.maxLoad(), 10);
}

TEST(ChannelLoadMapTest, ArithmeticAndStats) {
  const Torus t = Torus::torus(Shape{4});
  ChannelLoadMap a(t);
  a.add(t.channelId(0, 0, Dir::Plus), 5);
  a.add(t.channelId(0, 0, Dir::Plus), 3);
  a.add(t.channelId(1, 0, Dir::Plus), 7);
  EXPECT_DOUBLE_EQ(a.load(t.channelId(0, 0, Dir::Plus)), 8);
  EXPECT_DOUBLE_EQ(a.load(t.channelId(2, 0, Dir::Plus)), 0);
  EXPECT_DOUBLE_EQ(a.maxLoad(), 8);
  EXPECT_DOUBLE_EQ(a.totalLoad(), 15);
  a.clear();
  EXPECT_DOUBLE_EQ(a.totalLoad(), 0);
}

TEST(Fig1, MclPrefersDiagonalUnderMar) {
  // The paper's motivating example (§III-A, Fig. 1): 4 processes on a 2x2
  // mesh. P1<->P2 communicate heavily (weight 100); other edges are light.
  // Hop-bytes places P1,P2 adjacent (one link carries 100); MCL-aware
  // mapping places them on the diagonal so MAR splits the load (50/50).
  const Torus m = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 1, 100);  // P1 <-> P2 heavy
  g.addExchange(0, 2, 1);
  g.addExchange(1, 3, 1);
  g.addExchange(2, 3, 1);

  // Hop-bytes-style mapping: P1 and P2 adjacent.
  const std::vector<NodeId> adjacent{m.nodeId(Coord{0, 0}),
                                     m.nodeId(Coord{0, 1}),
                                     m.nodeId(Coord{1, 0}),
                                     m.nodeId(Coord{1, 1})};
  // MCL-aware mapping: P1 and P2 on the diagonal.
  const std::vector<NodeId> diagonal{m.nodeId(Coord{0, 0}),
                                     m.nodeId(Coord{1, 1}),
                                     m.nodeId(Coord{0, 1}),
                                     m.nodeId(Coord{1, 0})};

  const double adjacentMcl = placementMcl(m, g, adjacent);
  const double diagonalMcl = placementMcl(m, g, diagonal);
  EXPECT_GE(adjacentMcl, 100.0);  // the heavy flow saturates one link
  EXPECT_LT(diagonalMcl, 60.0);   // split across both L-paths
  EXPECT_LT(diagonalMcl, adjacentMcl);

  // Hop-bytes ranks them the other way: the metric is misleading under MAR.
  EXPECT_LT(hopBytes(g, m, adjacent), hopBytes(g, m, diagonal));
}

TEST(PlacementLoads, CoLocatedFlowsAddNothing) {
  const Torus t = Torus::torus(Shape{2, 2});
  CommGraph g(4);
  g.addFlow(0, 1, 50);
  // Both vertices on the same node.
  const double mcl = placementMcl(t, g, {0, 0, 1, 2});
  EXPECT_DOUBLE_EQ(mcl, 0);
}

// ---- Optimal-routing LP ------------------------------------------------------

TEST(LpRouting, MatchesUniformOnSymmetricInstance) {
  // Single diagonal flow on a 2x2 mesh: optimal split == uniform split.
  const Torus m = Torus::mesh(Shape{2, 2});
  CommGraph g(2);
  g.addFlow(0, 1, 100);
  const std::vector<NodeId> place{m.nodeId(Coord{0, 0}), m.nodeId(Coord{1, 1})};
  const auto r = optimalMinimalMcl(m, g, place);
  ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(r.mcl, 50.0, 1e-6);
}

TEST(LpRouting, NeverWorseThanUniform) {
  Rng rng(2024);
  const Torus t = Torus::torus(Shape{2, 2, 2});
  for (int trial = 0; trial < 10; ++trial) {
    CommGraph g(8);
    for (int i = 0; i < 6; ++i) {
      const auto a = static_cast<RankId>(rng.nextBounded(8));
      const auto b = static_cast<RankId>(rng.nextBounded(8));
      if (a != b) g.addFlow(a, b, 1 + static_cast<double>(rng.nextBounded(20)));
    }
    std::vector<NodeId> place(8);
    for (int i = 0; i < 8; ++i) place[static_cast<std::size_t>(i)] = i;
    const double uniform = placementMcl(t, g, place);
    const auto lp = optimalMinimalMcl(t, g, place);
    ASSERT_EQ(lp.status, lp::SolveStatus::Optimal);
    EXPECT_LE(lp.mcl, uniform + 1e-6);
  }
}

TEST(LpRouting, SingleUnsplittablePath) {
  // 1D mesh: only one minimal path; LP must equal the flow volume.
  const Torus m = Torus::mesh(Shape{4});
  CommGraph g(2);
  g.addFlow(0, 1, 42);
  const auto r = optimalMinimalMcl(m, g, {0, 3});
  ASSERT_EQ(r.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(r.mcl, 42.0, 1e-6);
}

}  // namespace
}  // namespace rahtm
