// Tests for the final placement refinement pass (core/refine.hpp).

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hpp"
#include "core/refine.hpp"
#include "obs/heartbeat.hpp"
#include "routing/oblivious.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

TEST(Refine, ImprovesABadPlacement) {
  // Chain graph placed in bit-reversed order on a ring: refinement should
  // restore (near-)linear order and cut the MCL substantially.
  const Torus t = Torus::torus(Shape{8});
  CommGraph g(8);
  for (RankId r = 0; r + 1 < 8; ++r) g.addExchange(r, r + 1, 10);
  std::vector<NodeId> place{0, 4, 2, 6, 1, 5, 3, 7};
  const double before = placementMcl(t, g, place);
  const RefineResult rr = refinePlacement(t, g, place);
  EXPECT_DOUBLE_EQ(rr.objectiveBefore, before);
  EXPECT_LT(rr.objectiveAfter, before);
  EXPECT_GT(rr.swapsApplied, 0);
  EXPECT_NEAR(rr.objectiveAfter, placementMcl(t, g, place), 1e-9);
}

TEST(Refine, NeverWorsens) {
  Rng rng(2025);
  const Torus t = Torus::torus(Shape{2, 2, 2});
  for (int trial = 0; trial < 5; ++trial) {
    CommGraph g(8);
    for (int i = 0; i < 12; ++i) {
      const auto a = static_cast<RankId>(rng.nextBounded(8));
      const auto b = static_cast<RankId>(rng.nextBounded(8));
      if (a != b) g.addFlow(a, b, 1 + static_cast<double>(rng.nextBounded(40)));
    }
    std::vector<NodeId> place(8);
    std::iota(place.begin(), place.end(), 0);
    rng.shuffle(place);
    const double before = placementMcl(t, g, place);
    const RefineResult rr = refinePlacement(t, g, place);
    EXPECT_LE(rr.objectiveAfter, before + 1e-9);
    // Result is still a valid permutation.
    std::vector<bool> used(8, false);
    for (const NodeId n : place) {
      ASSERT_GE(n, 0);
      ASSERT_LT(n, 8);
      EXPECT_FALSE(used[static_cast<std::size_t>(n)]);
      used[static_cast<std::size_t>(n)] = true;
    }
  }
}

TEST(Refine, FixedPointIsStable) {
  // Running refinement twice changes nothing the second time.
  const Torus t = Torus::torus(Shape{4});
  CommGraph g(4);
  g.addExchange(0, 1, 10);
  g.addExchange(2, 3, 10);
  std::vector<NodeId> place{0, 2, 1, 3};
  refinePlacement(t, g, place);
  const std::vector<NodeId> frozen = place;
  const RefineResult second = refinePlacement(t, g, place);
  EXPECT_EQ(second.swapsApplied, 0);
  EXPECT_EQ(place, frozen);
}

TEST(Refine, HopBytesObjective) {
  const Torus t = Torus::mesh(Shape{4});
  CommGraph g(4);
  g.addExchange(0, 3, 100);  // far apart under identity
  std::vector<NodeId> place{0, 1, 2, 3};
  RefineConfig cfg;
  cfg.objective = MapObjective::HopBytes;
  const RefineResult rr = refinePlacement(t, g, place, cfg);
  EXPECT_LT(rr.objectiveAfter, rr.objectiveBefore);
  EXPECT_EQ(t.distance(place[0], place[3]), 1);  // now adjacent
}

// The watchdog reads Pulse::RefineProbes. AllPairs beats each vertex's
// pair count before probing those pairs, so the pulse advances by exactly
// the probes made; Pruned beats each candidate list before probing it, so
// by at least its probes.
TEST(Refine, PulseAdvancesWithProbes) {
  const Torus t = Torus::torus(Shape{4, 4});
  const CommGraph g = makeCG(16).commGraph();
  obs::Heartbeats& hb = obs::Heartbeats::instance();
  const bool wasEnabled = hb.enabled();
  hb.setEnabled(true);
  for (const RefineCandidates mode :
       {RefineCandidates::AllPairs, RefineCandidates::Pruned}) {
    std::vector<NodeId> place(16);
    std::iota(place.begin(), place.end(), 0);
    Rng rng(3);
    rng.shuffle(place);
    RefineConfig cfg;
    cfg.candidates = mode;
    const std::uint64_t before = hb.value(obs::Pulse::RefineProbes);
    const RefineResult rr = refinePlacement(t, g, place, cfg);
    const std::uint64_t beats = hb.value(obs::Pulse::RefineProbes) - before;
    EXPECT_GT(rr.probes, 0u);
    if (mode == RefineCandidates::AllPairs) {
      EXPECT_EQ(beats, rr.probes);
    } else {
      EXPECT_GE(beats, rr.probes);
    }
  }
  hb.setEnabled(wasEnabled);
}

TEST(Refine, PassBudgetRespected) {
  const Torus t = Torus::torus(Shape{4, 4});
  const Workload w = makeCG(16);
  const CommGraph g = w.commGraph();
  std::vector<NodeId> place(16);
  std::iota(place.begin(), place.end(), 0);
  Rng rng(3);
  rng.shuffle(place);
  RefineConfig cfg;
  cfg.maxPasses = 1;
  const RefineResult rr = refinePlacement(t, g, place, cfg);
  EXPECT_EQ(rr.passes, 1);
}

}  // namespace
}  // namespace rahtm
