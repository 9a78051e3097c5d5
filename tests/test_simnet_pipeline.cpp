// Tests for the rank-pipelined iteration simulation (per-rank stage
// dependencies) and the UniformMinimal routing mode.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "mapping/permutation.hpp"
#include "profile/profile.hpp"
#include "routing/oblivious.hpp"
#include "simnet/simulator.hpp"
#include "topology/torus.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

using simnet::Message;
using simnet::Phase;
using simnet::PhaseResult;
using simnet::RoutingMode;
using simnet::SimConfig;

Mapping oneRankPerNode(const Torus& t) {
  Mapping m(static_cast<RankId>(t.numNodes()));
  for (RankId r = 0; r < m.numRanks(); ++r) m.assign(r, r, 0);
  return m;
}

SimConfig cfg1() {
  SimConfig cfg;
  cfg.bytesPerFlit = 1;
  cfg.packetFlits = 4;
  return cfg;
}

TEST(Iteration, SingleStageEqualsPhase) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Mapping m = oneRankPerNode(t);
  Phase phase;
  for (RankId r = 0; r < 8; ++r) phase.push_back({r, static_cast<RankId>((r + 3) % 8), 33});
  const PhaseResult a = simulatePhase(t, m, phase, cfg1());
  const PhaseResult b = simulateIteration(t, m, {phase}, cfg1());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.networkFlits, b.networkFlits);
}

TEST(Iteration, DependencyDelaysSecondStage) {
  // Rank 0 sends a long message in stage 0; its stage-1 message must wait
  // for the stage-0 exchange to complete, so the total exceeds the
  // concurrent lower bound.
  const Torus t = Torus::mesh(Shape{2});
  Mapping m(2);
  m.assign(0, 0, 0);
  m.assign(1, 1, 0);
  const Phase s0{{0, 1, 64}};
  const Phase s1{{0, 1, 64}};
  const auto both = simulateIteration(t, m, {s0, s1}, cfg1());
  const auto one = simulateIteration(t, m, {s0}, cfg1());
  // Serial stages: roughly twice the single-stage drain.
  EXPECT_GE(both.cycles, 2 * one.cycles - 4);
}

TEST(Iteration, IndependentRanksOverlapStages) {
  // Two disjoint rank pairs: pair A has two serial stages; pair B idles in
  // stage 0 and transmits in stage 1. B's stage-1 message may start only
  // after B's (empty) stage 0, i.e. immediately — no global barrier.
  const Torus t = Torus::mesh(Shape{4});
  Mapping m(4);
  for (RankId r = 0; r < 4; ++r) m.assign(r, r, 0);
  const Phase s0{{0, 1, 256}};
  const Phase s1{{2, 3, 8}};
  const auto res = simulateIteration(t, m, {s0, s1}, cfg1());
  // If a global barrier separated the stages the total would exceed the
  // long message's drain plus the short one; with pipelining the short
  // message finishes inside the long one's shadow.
  const auto longOnly = simulateIteration(t, m, {s0}, cfg1());
  EXPECT_LE(res.cycles, longOnly.cycles + 4);
}

TEST(Iteration, ReceiveDependencyBlocks) {
  // Rank 2's stage-1 send depends on receiving rank 0's stage-0 message.
  const Torus t = Torus::mesh(Shape{3});
  Mapping m(3);
  for (RankId r = 0; r < 3; ++r) m.assign(r, r, 0);
  const Phase s0{{0, 2, 128}};  // long transfer into rank 2
  const Phase s1{{2, 1, 4}};    // rank 2 forwards a small message
  const auto res = simulateIteration(t, m, {s0, s1}, cfg1());
  const auto firstOnly = simulateIteration(t, m, {s0}, cfg1());
  EXPECT_GT(res.cycles, firstOnly.cycles);  // the forward waited
}

TEST(Iteration, FlitConservationAcrossStages) {
  const Torus t = Torus::torus(Shape{2, 2});
  const Workload w = makeCG(4, NasParams{96, 1});
  Mapping m(4);
  for (RankId r = 0; r < 4; ++r) m.assign(r, r, 0);
  std::int64_t totalFlits = 0;
  for (const Phase& p : w.phases) {
    for (const Message& msg : p) {
      totalFlits += std::max<std::int64_t>(1, (msg.bytes + 0) / 1);
    }
  }
  const auto res = simulateIteration(t, m, w.phases, cfg1());
  EXPECT_EQ(res.networkFlits + res.localFlits, totalFlits);
}

TEST(Iteration, RepetitionReachesSteadyState) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Workload w = makeCG(8, NasParams{512, 1});
  const Mapping m = oneRankPerNode(t);
  SimConfig cfg;
  cfg.injectionBandwidth = 4;
  const auto one = commCyclesPerIteration(w, t, m, cfg, 1);
  const auto four = commCyclesPerIteration(w, t, m, cfg, 4);
  // Per-iteration steady-state time is within 2x of the cold-start time
  // (sanity: repetition amortizes, it does not blow up).
  EXPECT_LE(four, 2 * one);
  EXPECT_GT(four, 0);
}

TEST(RoutingModes, UniformMinimalSpreadsTies) {
  // A single heavy diagonal flow on a 2x2 mesh: uniform-minimal routing
  // must use both L-paths roughly evenly.
  const Torus t = Torus::mesh(Shape{2, 2});
  Mapping m(4);
  for (RankId r = 0; r < 4; ++r) m.assign(r, r, 0);
  Phase phase;
  const auto diag = static_cast<RankId>(t.nodeId(Coord{1, 1}));
  for (int i = 0; i < 64; ++i) phase.push_back({0, diag, 16});
  SimConfig cfg = cfg1();
  cfg.routing = RoutingMode::UniformMinimal;
  cfg.injectionBandwidth = 8;
  const auto res = simulatePhase(t, m, phase, cfg);
  // 64 messages x 16 flits = 1024 flits over two 2-hop paths: the busiest
  // link should carry close to half the traffic, not all of it.
  EXPECT_LT(res.maxChannelFlits, 0.7 * 1024);
  EXPECT_GT(res.maxChannelFlits, 0.3 * 1024);
}

TEST(RoutingModes, AdaptiveTieBreakIsSeedStable) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Workload w = makeCG(8, NasParams{256, 1});
  Mapping m(8);
  for (RankId r = 0; r < 8; ++r) m.assign(r, r, 0);
  SimConfig a = cfg1(), b = cfg1(), c = cfg1();
  c.seed = 999;
  const auto ra = simulateIteration(t, m, w.phases, a);
  const auto rb = simulateIteration(t, m, w.phases, b);
  const auto rc = simulateIteration(t, m, w.phases, c);
  EXPECT_EQ(ra.cycles, rb.cycles);  // same seed, same run
  (void)rc;                         // different seed must still complete
  EXPECT_EQ(rc.networkFlits + rc.localFlits, ra.networkFlits + ra.localFlits);
}

}  // namespace
}  // namespace rahtm
