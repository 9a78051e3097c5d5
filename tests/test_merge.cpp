// Tests for phase 3: the bottom-up beam merge with block reorientation.

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "core/merge.hpp"
#include "obs/heartbeat.hpp"
#include "routing/oblivious.hpp"

namespace rahtm {
namespace {

/// Two 1x2 blocks merging into a 2x2 region. Block A holds clusters {0,1},
/// block B holds {2,3}.
std::vector<MergeChild> twoBarBlocks() {
  std::vector<MergeChild> children(2);
  children[0].clusters = {0, 1};
  children[0].localPos = {Coord{0, 0}, Coord{0, 1}};
  children[0].slot = Coord{0, 0};
  children[1].clusters = {2, 3};
  children[1].localPos = {Coord{0, 0}, Coord{0, 1}};
  children[1].slot = Coord{1, 0};
  return children;
}

TEST(Merge, PlacesEveryClusterExactlyOnce) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 5);
  g.addExchange(1, 3, 5);
  MergeConfig cfg;
  const MergeResult r = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                      twoBarBlocks(), g, cfg);
  ASSERT_EQ(r.clustersInRegion.size(), 4u);
  std::set<NodeId> nodes(r.localNode.begin(), r.localNode.end());
  EXPECT_EQ(nodes.size(), 4u);  // a bijection onto the region
  for (const NodeId n : r.localNode) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, region.numNodes());
  }
}

// Merge beats a heartbeat pulse from its candidate loop, so the watchdog
// does not read a long root merge as a stall.
TEST(Merge, AdvancesMergeCandidatesPulse) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 5);
  obs::Heartbeats& hb = obs::Heartbeats::instance();
  const std::uint64_t before = hb.value(obs::Pulse::MergeCandidates);
  mergeChildren(region, Shape{1, 2}, Shape{2, 1}, twoBarBlocks(), g,
                MergeConfig{});
  EXPECT_GT(hb.value(obs::Pulse::MergeCandidates), before);
}

TEST(Merge, OrientationSearchFindsTheAlignedFlip) {
  // One heavy pair 0<->2. Identity orientations place them adjacent
  // (distance 1: one link carries the full 100); flipping the second block
  // moves 2 to the diagonal, where MAR splits the flow 50/50 (the Fig. 1
  // effect) — the orientation search must find that flip.
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 100);

  MergeConfig noSearch;
  noSearch.beamWidth = 1;
  noSearch.maxOrientations = 1;  // identity only
  const MergeResult rigid = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                          twoBarBlocks(), g, noSearch);

  MergeConfig search;  // full orientation group
  const MergeResult merged = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                           twoBarBlocks(), g, search);
  EXPECT_NEAR(rigid.objective, 100.0, 1e-9);
  EXPECT_NEAR(merged.objective, 50.0, 1e-9);
  // The objective matches a from-scratch evaluation of the final placement.
  std::vector<NodeId> place(4);
  for (std::size_t i = 0; i < 4; ++i) {
    place[static_cast<std::size_t>(merged.clustersInRegion[i])] =
        merged.localNode[i];
  }
  EXPECT_NEAR(merged.objective, placementMcl(region, g, place), 1e-9);
}

TEST(Merge, ObjectiveMatchesFromScratchEvaluation) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 7);
  g.addExchange(1, 2, 3);
  g.addExchange(0, 1, 11);  // intra-block flow must be counted too
  MergeConfig cfg;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                        twoBarBlocks(), g, cfg);
  std::vector<NodeId> place(4, kInvalidNode);
  for (std::size_t i = 0; i < res.clustersInRegion.size(); ++i) {
    place[static_cast<std::size_t>(res.clustersInRegion[i])] =
        res.localNode[i];
  }
  EXPECT_NEAR(res.objective, placementMcl(region, g, place), 1e-9);
}

TEST(Merge, IgnoresFlowsLeavingTheRegion) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(6);
  g.addExchange(0, 2, 5);
  g.addExchange(0, 5, 1000);  // cluster 5 is outside the region
  MergeConfig cfg;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                        twoBarBlocks(), g, cfg);
  EXPECT_LT(res.objective, 10);  // the 1000-volume flow did not count
}

TEST(Merge, RepositioningCanBeatPinnedSlots) {
  // Pin both heavy partners into the SAME column so pinned slots force
  // distance-2 communication; repositioning may swap slots.
  const Torus region = Torus::mesh(Shape{4, 1});
  std::vector<MergeChild> children(4);
  for (int i = 0; i < 4; ++i) {
    children[static_cast<std::size_t>(i)].clusters = {i};
    children[static_cast<std::size_t>(i)].localPos = {Coord{0, 0}};
  }
  // Pins: the 0<->1 pair spans the whole path, crossing the middle link
  // that the 2<->3 pair also needs. Swapping slots separates the pairs.
  children[0].slot = Coord{0, 0};
  children[1].slot = Coord{3, 0};
  children[2].slot = Coord{1, 0};
  children[3].slot = Coord{2, 0};
  CommGraph g(4);
  g.addExchange(0, 1, 50);
  g.addExchange(2, 3, 50);

  MergeConfig pinned;
  pinned.allowRepositioning = false;
  const auto rp = mergeChildren(region, Shape{1, 1}, Shape{4, 1}, children, g,
                                pinned);
  MergeConfig repositioning;
  repositioning.allowRepositioning = true;
  const auto rr = mergeChildren(region, Shape{1, 1}, Shape{4, 1}, children, g,
                                repositioning);
  EXPECT_LE(rr.objective, rp.objective);
  EXPECT_LT(rr.objective, rp.objective);  // strictly better here
}

TEST(Merge, HopBytesObjectiveMode) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 3, 100);
  MergeConfig cfg;
  cfg.objective = MapObjective::HopBytes;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                                        twoBarBlocks(), g, cfg);
  std::vector<NodeId> place(4, 0);
  for (std::size_t i = 0; i < res.clustersInRegion.size(); ++i) {
    place[static_cast<std::size_t>(res.clustersInRegion[i])] =
        res.localNode[i];
  }
  // 0 and 3 end up adjacent: hop-bytes = 200 (both directions, 1 hop).
  EXPECT_NEAR(res.objective, 200.0, 1e-9);
}

TEST(Merge, SingleChildIsPassedThrough) {
  const Torus region = Torus::mesh(Shape{1, 2});
  std::vector<MergeChild> children(1);
  children[0].clusters = {0, 1};
  children[0].localPos = {Coord{0, 0}, Coord{0, 1}};
  children[0].slot = Coord{0, 0};
  CommGraph g(2);
  g.addExchange(0, 1, 4);
  MergeConfig cfg;
  const MergeResult res = mergeChildren(region, Shape{1, 2}, Shape{1, 1},
                                        children, g, cfg);
  EXPECT_EQ(res.clustersInRegion.size(), 2u);
  EXPECT_NEAR(res.objective, 4.0, 1e-9);
}

TEST(Merge, RejectsMalformedInputs) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  MergeConfig cfg;
  // Wrong child shape vs grid.
  EXPECT_THROW(mergeChildren(region, Shape{2, 2}, Shape{2, 1}, twoBarBlocks(),
                             g, cfg),
               PreconditionError);
  // Duplicate cluster across children.
  auto dup = twoBarBlocks();
  dup[1].clusters = {1, 3};
  EXPECT_THROW(
      mergeChildren(region, Shape{1, 2}, Shape{2, 1}, dup, g, cfg),
      PreconditionError);
  // Empty children list.
  EXPECT_THROW(mergeChildren(region, Shape{1, 2}, Shape{2, 1}, {}, g, cfg),
               PreconditionError);
}

TEST(Merge, BeamWidthOneIsGreedy) {
  // With a wide beam the search must do at least as well as greedy.
  const Torus region = Torus::torus(Shape{2, 2, 2});
  std::vector<MergeChild> children;
  for (int i = 0; i < 8; ++i) {
    MergeChild c;
    c.clusters = {i};
    c.localPos = {Coord{0, 0, 0}};
    c.slot = region.coordOf(i);
    children.push_back(c);
  }
  CommGraph g(8);
  for (RankId a = 0; a < 8; ++a) {
    g.addExchange(a, (a + 1) % 8, 10);
    g.addExchange(a, (a + 3) % 8, 5);
  }
  MergeConfig greedy;
  greedy.beamWidth = 1;
  greedy.allowRepositioning = true;
  MergeConfig wide;
  wide.beamWidth = 64;
  wide.allowRepositioning = true;
  const auto rg = mergeChildren(region, Shape{1, 1, 1}, Shape{2, 2, 2},
                                children, g, greedy);
  const auto rw = mergeChildren(region, Shape{1, 1, 1}, Shape{2, 2, 2},
                                children, g, wide);
  EXPECT_LE(rw.objective, rg.objective + 1e-9);
}

}  // namespace
}  // namespace rahtm
