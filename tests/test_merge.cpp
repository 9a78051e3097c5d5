// Tests for phase 3: the bottom-up beam merge with block reorientation.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/merge.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
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
  pinned.maxRepositionSlots = 0;
  const auto rp = mergeChildren(region, Shape{1, 1}, Shape{4, 1}, children, g,
                                pinned);
  MergeConfig repositioning;
  repositioning.maxRepositionSlots = 3;  // every other slot
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
  greedy.maxRepositionSlots = 7;  // every other slot
  MergeConfig wide;
  wide.beamWidth = 64;
  wide.maxRepositionSlots = 7;
  const auto rg = mergeChildren(region, Shape{1, 1, 1}, Shape{2, 2, 2},
                                children, g, greedy);
  const auto rw = mergeChildren(region, Shape{1, 1, 1}, Shape{2, 2, 2},
                                children, g, wide);
  EXPECT_LE(rw.objective, rg.objective + 1e-9);
}

/// The inputs of one mergeChildren call.
struct RegionCase {
  Torus region;
  Shape childShape;
  Shape childGrid;
  std::vector<MergeChild> children;
  CommGraph graph;
};

/// Eight single-cluster children of shape 1x1x1 merging into a 2x2x2 torus:
/// every orientation of a child gives the same layout.
RegionCase singleClusterRegion() {
  RegionCase rc{Torus::torus(Shape{2, 2, 2}), Shape{1, 1, 1}, Shape{2, 2, 2},
                {}, CommGraph(8)};
  for (int i = 0; i < 8; ++i) {
    MergeChild c;
    c.clusters = {i};
    c.localPos = {Coord{0, 0, 0}};
    c.slot = rc.region.coordOf((i * 3) % 8);
    rc.children.push_back(c);
  }
  for (RankId a = 0; a < 8; ++a) {
    rc.graph.addExchange(a, (a + 1) % 8, 10.0 + a);
    rc.graph.addExchange(a, (a + 3) % 8, 4.0 + 2.0 * a);
  }
  return rc;
}

/// Four 2x2 children merging into a 4x4 torus, each holding two clusters.
/// Children 0 and 2 hold theirs on the diagonal, which the transposition
/// maps onto itself: eight orientations, four layouts. Children 1 and 3
/// hold theirs side by side: eight orientations, eight layouts, two of
/// which (identity and transposition) keep the first cluster in place.
RegionCase pairRegion() {
  RegionCase rc{Torus::torus(Shape{4, 4}), Shape{2, 2}, Shape{2, 2}, {},
                CommGraph(8)};
  const std::vector<Coord> slots = {Coord{1, 0}, Coord{0, 0}, Coord{1, 1},
                                    Coord{0, 1}};
  for (int i = 0; i < 4; ++i) {
    MergeChild c;
    c.clusters = {2 * i, 2 * i + 1};
    c.localPos = {Coord{0, 0}, i % 2 == 0 ? Coord{1, 1} : Coord{1, 0}};
    c.slot = slots[static_cast<std::size_t>(i)];
    rc.children.push_back(c);
  }
  for (RankId a = 0; a < 8; ++a) {
    rc.graph.addExchange(a, (a + 2) % 8, 6.0 + 3.0 * a);
    rc.graph.addExchange(a, (a + 5) % 8, 9.0 - a);
  }
  return rc;
}

/// What a merge returned, with the merge counters it added.
struct PinnedMerge {
  MergeResult result;
  std::int64_t candidates = 0;
  std::int64_t scored = 0;
};

PinnedMerge mergeCounted(const RegionCase& rc) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry* prev = obs::metrics();
  obs::setMetrics(&reg);
  PinnedMerge out{mergeChildren(rc.region, rc.childShape, rc.childGrid,
                                rc.children, rc.graph, MergeConfig{}),
                  0, 0};
  obs::setMetrics(prev);
  out.candidates = reg.counter("rahtm.merge.candidates").value();
  out.scored = reg.counter("rahtm.merge.scored").value();
  return out;
}

std::vector<std::string> describeAll(const std::vector<Orientation>& os) {
  std::vector<std::string> out;
  for (const Orientation& o : os) out.push_back(o.describe());
  return out;
}

// Orientations that give a child the same layout are scored once per beam
// entry and slot, and every orientation still enters the beam in order
// with that score. The merge must return exactly what scoring each
// orientation on its own returns (values pinned from code that did so).
TEST(Merge, LayoutSharedScoringMatchesPinnedSingleClusterMerge) {
  const PinnedMerge m = mergeCounted(singleClusterRegion());
  EXPECT_EQ(m.result.objective, 15.33333333333333);
  EXPECT_EQ(m.result.localNode, (std::vector<NodeId>{7, 3, 1, 6, 4, 0, 2, 5}));
  EXPECT_EQ(describeAll(m.result.orientationOfChild),
            (std::vector<std::string>{"[+1 +0 +2]", "[+0 +1 +2]", "[+0 +1 +2]",
                                      "[+2 +1 +0]", "[+0 +1 +2]", "[+1 +0 +2]",
                                      "[+0 +1 +2]", "[+0 +1 +2]"}));
  EXPECT_EQ(m.result.slotOfChild,
            (std::vector<Coord>{Coord{1, 1, 1}, Coord{0, 1, 1}, Coord{0, 0, 1},
                                Coord{1, 1, 0}, Coord{1, 0, 0}, Coord{0, 0, 0},
                                Coord{0, 1, 0}, Coord{1, 0, 1}}));
  EXPECT_EQ(m.candidates, 10304);
  // All six orientations of a 1x1x1 block share one layout: one score per
  // (entry, slot) instead of six, plus the pinned lineage's one per child.
  EXPECT_EQ(m.scored, (10304 - 8) / 6 + 8);
}

TEST(Merge, LayoutSharedScoringMatchesPinnedPairMerge) {
  const PinnedMerge m = mergeCounted(pairRegion());
  EXPECT_EQ(m.result.objective, 30.666666666666664);
  EXPECT_EQ(m.result.localNode,
            (std::vector<NodeId>{10, 15, 2, 3, 8, 13, 5, 4}));
  // Child 0 keeps the transposition although it ties with the identity:
  // the beam breaks ties by candidate order.
  EXPECT_EQ(describeAll(m.result.orientationOfChild),
            (std::vector<std::string>{"[+1 +0]", "[+1 +0]", "[+0 +1]",
                                      "[-1 -0]"}));
  EXPECT_EQ(m.result.slotOfChild,
            (std::vector<Coord>{Coord{1, 1}, Coord{0, 1}, Coord{1, 0},
                                Coord{0, 0}}));
  EXPECT_EQ(m.candidates, 2388);
  // Four scores per (entry, slot) for a diagonal child, eight for a
  // side-by-side one, where one score per orientation would take 2388.
  EXPECT_EQ(m.scored, 1472);
}

/// Eight 2x2x1 children filling a 4x4x2 torus, \p fill clusters each, with
/// seeded random traffic between them.
RegionCase seededBlockRegion(int fill, std::uint64_t seed) {
  const int clusters = 8 * fill;
  RegionCase rc{Torus::torus(Shape{4, 4, 2}), Shape{2, 2, 1}, Shape{2, 2, 2},
                {}, CommGraph(clusters)};
  const Torus slots = Torus::mesh(Shape{2, 2, 2});
  for (int i = 0; i < 8; ++i) {
    MergeChild c;
    for (int k = 0; k < fill; ++k) {
      c.clusters.push_back(fill * i + k);
      c.localPos.push_back(Coord{k / 2, k % 2, 0});
    }
    c.slot = slots.coordOf((i * 5) % 8);
    rc.children.push_back(c);
  }
  Rng rng(seed);
  for (int f = 0; f < 12 * clusters / 4; ++f) {
    rc.graph.addFlow(static_cast<RankId>(rng.nextBounded(clusters)),
                     static_cast<RankId>(rng.nextBounded(clusters)),
                     static_cast<double>(rng.nextBounded(16) + 1) * 256.0);
  }
  return rc;
}

/// The single-cluster region with one volume on every flow: many layouts
/// tie, at the beam's bar too.
RegionCase uniformRingRegion() {
  RegionCase rc = singleClusterRegion();
  rc.graph = CommGraph(8);
  for (RankId a = 0; a < 8; ++a) {
    rc.graph.addExchange(a, (a + 1) % 8, 10.0);
    rc.graph.addExchange(a, (a + 3) % 8, 10.0);
  }
  return rc;
}

std::uint64_t foldHash(std::uint64_t h, std::uint64_t v) {
  h = (h ^ v) * 0x100000001b3ull;
  return h ^ (h >> 29);
}

/// Hash of everything a merge returns.
std::uint64_t resultHash(const MergeResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.objective, sizeof bits);
  h = foldHash(h, bits);
  for (const NodeId n : r.localNode) {
    h = foldHash(h, static_cast<std::uint64_t>(n));
  }
  for (const Orientation& o : r.orientationOfChild) {
    for (const char ch : o.describe()) {
      h = foldHash(h, static_cast<std::uint64_t>(ch));
    }
  }
  for (const Coord& s : r.slotOfChild) {
    for (std::size_t d = 0; d < s.size(); ++d) {
      h = foldHash(h, static_cast<std::uint64_t>(s[d]));
    }
  }
  return h;
}

/// A region's merge at one beam width, with the result hash, the objective
/// and the counters recorded before scoring stopped at the beam's bar.
struct PinnedBeam {
  const char* name;
  RegionCase region;
  int width;
  std::uint64_t hash;
  std::int64_t candidates;
  std::int64_t scored;
  std::uint64_t pulse;  ///< MergeCandidates heartbeats
};

std::vector<PinnedBeam> pinnedBeams() {
  const RegionCase blocks4 = seededBlockRegion(4, 0x51);
  const RegionCase blocks3 = seededBlockRegion(3, 0x52);
  const RegionCase pairs = pairRegion();
  const RegionCase ring = uniformRingRegion();
  return {
      {"blocks4", blocks4, 4, 0x3356ebc7111307a1ull, 1192, 1192, 1184},
      {"blocks4", blocks4, 6, 0x3356ebc7111307a1ull, 1640, 1640, 1632},
      {"blocks4", blocks4, 8, 0x32a847343665b6faull, 2088, 2088, 2080},
      {"blocks3", blocks3, 4, 0x95e10824b0863c7cull, 1192, 1192, 1184},
      {"blocks3", blocks3, 6, 0x98a1a53fdf250dacull, 1640, 1640, 1632},
      {"blocks3", blocks3, 8, 0xde26e88253ea00e5ull, 2088, 2088, 2080},
      {"pairs", pairs, 4, 0x6377421a83361a84ull, 276, 176, 272},
      {"pairs", pairs, 6, 0xfd866aca5d811bdeull, 372, 232, 368},
      {"pairs", pairs, 8, 0x0f89b8947c489336ull, 468, 288, 464},
      {"uniform ring", ring, 4, 0x294b555c55182a4eull, 896, 156, 888},
      {"uniform ring", ring, 6, 0xc0024386381c05fdull, 1232, 212, 1224},
      {"uniform ring", ring, 8, 0x64e20e28e37c5815ull, 1568, 268, 1560},
  };
}

// Narrow beams fill after a few candidates, so from then on scoring stops
// at the bar. Every merge returns what it returned before, with the same
// candidate and scoring counts and the same heartbeats: cut scorings still
// count, and still beat the watchdog. In the uniform ring many layouts tie
// at the bar; a tie enters the beam, so stopping at `>=` changes a result.
TEST(Merge, NarrowBeamsMatchPinnedResults) {
  std::int64_t cut = 0;
  for (const PinnedBeam& p : pinnedBeams()) {
    obs::MetricsRegistry reg;
    obs::MetricsRegistry* prev = obs::metrics();
    obs::setMetrics(&reg);
    MergeConfig cfg;
    cfg.beamWidth = p.width;
    obs::Heartbeats& hb = obs::Heartbeats::instance();
    const std::uint64_t before = hb.value(obs::Pulse::MergeCandidates);
    const RegionCase& rc = p.region;
    const MergeResult r = mergeChildren(rc.region, rc.childShape, rc.childGrid,
                                        rc.children, rc.graph, cfg);
    const std::uint64_t pulse = hb.value(obs::Pulse::MergeCandidates) - before;
    obs::setMetrics(prev);
    EXPECT_EQ(resultHash(r), p.hash) << p.name << " beam " << p.width;
    EXPECT_EQ(reg.counter("rahtm.merge.candidates").value(), p.candidates)
        << p.name << " beam " << p.width;
    EXPECT_EQ(reg.counter("rahtm.merge.scored").value(), p.scored)
        << p.name << " beam " << p.width;
    EXPECT_EQ(pulse, p.pulse) << p.name << " beam " << p.width;
    cut += reg.counter("rahtm.merge.cut").value();
  }
  EXPECT_GT(cut, 0);
}

// A beam narrower than one entry keeps no candidate; a negative width cast
// to size_t would never prune. Both are rejected up front.
TEST(Merge, RejectsBeamWidthBelowOne) {
  const Torus region = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 2, 5);
  for (const int width : {0, -5}) {
    MergeConfig cfg;
    cfg.beamWidth = width;
    EXPECT_THROW(mergeChildren(region, Shape{1, 2}, Shape{2, 1},
                               twoBarBlocks(), g, cfg),
                 PreconditionError)
        << "beam " << width;
  }
}

}  // namespace
}  // namespace rahtm
