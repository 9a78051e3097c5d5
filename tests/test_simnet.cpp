// Tests for the cycle-level network simulator: flit conservation, exact
// timings on hand-analyzable scenarios, contention behaviour, adaptive vs
// dimension-order routing, and the concentration (NIC sharing) model.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "mapping/permutation.hpp"
#include "obs/heartbeat.hpp"
#include "simnet/simulator.hpp"
#include "topology/torus.hpp"

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

SimConfig baseConfig() {
  SimConfig cfg;
  cfg.bytesPerFlit = 1;  // 1 byte == 1 flit: sizes are exact flit counts
  cfg.packetFlits = 4;
  return cfg;
}

TEST(Simulator, EmptyPhaseCostsNothing) {
  const Torus t = Torus::torus(Shape{2, 2});
  const Mapping m = oneRankPerNode(t);
  const PhaseResult r = simulatePhase(t, m, {}, baseConfig());
  EXPECT_EQ(r.cycles, 0);
  EXPECT_EQ(r.networkFlits, 0);
}

TEST(Simulator, SingleHopTiming) {
  // One 4-flit packet over one hop (store-and-forward): 4 cycles on the
  // injection link (cycles 0-3), then 4 on the network link (cycles 4-7).
  const Torus t = Torus::mesh(Shape{2});
  const Mapping m = oneRankPerNode(t);
  const Phase phase{{0, 1, 4}};
  const PhaseResult r = simulatePhase(t, m, phase, baseConfig());
  EXPECT_EQ(r.networkFlits, 4);
  EXPECT_EQ(r.flitHops, 4);
  EXPECT_EQ(r.cycles, 8);

  // A 100-flit packet over two hops, which completes further ahead than
  // the drain's timing wheel reaches: 100 cycles per link after
  // ceil(100 / bw) at the NIC.
  const Torus line = Torus::mesh(Shape{3});
  SimConfig cfg = baseConfig();
  cfg.packetFlits = 100;
  for (const int bw : {1, 7}) {
    cfg.injectionBandwidth = bw;
    const PhaseResult big =
        simulatePhase(line, oneRankPerNode(line), {{0, 2, 100}}, cfg);
    EXPECT_EQ(big.cycles, (100 + bw - 1) / bw + 200) << "bandwidth " << bw;
  }
}

TEST(Simulator, FlitConservation) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Mapping m = oneRankPerNode(t);
  Phase phase;
  std::int64_t totalBytes = 0;
  for (RankId r = 0; r < 8; ++r) {
    const RankId dst = (r + 3) % 8;
    phase.push_back({r, dst, 17});
    totalBytes += 17;
  }
  const PhaseResult r = simulatePhase(t, m, phase, baseConfig());
  EXPECT_EQ(r.networkFlits + r.localFlits, totalBytes);
  EXPECT_GE(r.flitHops, r.networkFlits);  // every network flit hops >= once
}

TEST(Simulator, IntraNodeTrafficNeverTouchesNetwork) {
  const Torus t = Torus::torus(Shape{2, 2});
  Mapping m(8);
  for (RankId r = 0; r < 8; ++r) m.assign(r, static_cast<NodeId>(r / 2), r % 2);
  // Pairs (0,1), (2,3)... are co-located.
  Phase phase{{0, 1, 64}, {2, 3, 64}};
  const PhaseResult r = simulatePhase(t, m, phase, baseConfig());
  EXPECT_EQ(r.networkFlits, 0);
  EXPECT_EQ(r.localFlits, 128);
  EXPECT_EQ(r.flitHops, 0);
  // The local port moves 8 flits/cycle.
  EXPECT_LE(r.cycles, 64 / 8 + 2);
}

TEST(Simulator, ContentionSerializesSharedLink) {
  // Two flows forced over the same mesh link take twice as long to drain
  // as one flow of the same size.
  const Torus t = Torus::mesh(Shape{3});
  Mapping m(3);
  m.assign(0, 0, 0);
  m.assign(1, 1, 0);
  m.assign(2, 2, 0);
  const std::int64_t bytes = 256;
  const SimConfig cfg = baseConfig();
  const auto solo = simulatePhase(t, m, {{1, 2, bytes}}, cfg);
  // Flows from 0 and 1 both cross link 1->2.
  const auto both =
      simulatePhase(t, m, {{1, 2, bytes}, {0, 2, bytes}}, cfg);
  EXPECT_GT(both.cycles, solo.cycles + bytes / 2);
  EXPECT_DOUBLE_EQ(both.maxChannelFlits, 2 * bytes);
}

TEST(Simulator, AdaptiveBeatsDorUnderDiagonalLoad) {
  // Two heavy diagonal flows on a 2x2 mesh: DOR sends both through the same
  // X-then-Y corner; adaptive routing spreads them.
  const Torus t = Torus::mesh(Shape{2, 2});
  Mapping m(4);
  for (RankId r = 0; r < 4; ++r) m.assign(r, r, 0);
  const NodeId n00 = t.nodeId(Coord{0, 0});
  const NodeId n11 = t.nodeId(Coord{1, 1});
  Phase phase;
  // Several packets worth of diagonal traffic, both diagonals.
  phase.push_back({static_cast<RankId>(n00), static_cast<RankId>(n11), 512});
  phase.push_back({static_cast<RankId>(n11), static_cast<RankId>(n00), 512});

  SimConfig adaptive = baseConfig();
  SimConfig dor = baseConfig();
  dor.routing = RoutingMode::DimensionOrder;
  const auto ra = simulatePhase(t, m, phase, adaptive);
  const auto rd = simulatePhase(t, m, phase, dor);
  // DOR concentrates each flow on one path; adaptive splits across both,
  // halving the busiest-link traffic.
  EXPECT_LT(ra.maxChannelFlits, rd.maxChannelFlits);
}

TEST(Simulator, ConcentrationSharesInjectionLink) {
  // c ranks on one node all sending at once share 1 flit/cycle injection:
  // makespan scales with total injected volume.
  const Torus t = Torus::mesh(Shape{2});
  const int c = 4;
  Mapping m(8);
  for (RankId r = 0; r < 8; ++r) m.assign(r, static_cast<NodeId>(r / c), r % c);
  Phase phase;
  for (RankId r = 0; r < 4; ++r) {
    phase.push_back({r, static_cast<RankId>(r + 4), 64});
  }
  const PhaseResult res = simulatePhase(t, m, phase, baseConfig());
  EXPECT_GE(res.cycles, 4 * 64);  // 256 flits through a 1-flit/cycle NIC
  EXPECT_EQ(res.networkFlits, 256);
}

TEST(Simulator, TorusWrapBeatsMeshForEndToEndTraffic) {
  const Shape shape{8};
  Mapping m(8);
  for (RankId r = 0; r < 8; ++r) m.assign(r, r, 0);
  const Phase phase{{0, 7, 256}};
  const auto torus = simulatePhase(Torus::torus(shape), m, phase, baseConfig());
  const auto mesh = simulatePhase(Torus::mesh(shape), m, phase, baseConfig());
  EXPECT_LT(torus.flitHops, mesh.flitHops);  // 1 hop vs 7 hops
  EXPECT_LT(torus.cycles, mesh.cycles);
}

TEST(Simulator, RejectsBadInput) {
  const Torus t = Torus::mesh(Shape{2});
  Mapping incomplete(2);
  incomplete.assign(0, 0, 0);
  EXPECT_THROW(simulatePhase(t, incomplete, {}, baseConfig()),
               PreconditionError);

  const Mapping m = oneRankPerNode(t);
  EXPECT_THROW(simulatePhase(t, m, {{0, 5, 8}}, baseConfig()),
               PreconditionError);
  EXPECT_THROW(simulatePhase(t, m, {{0, 1, -3}}, baseConfig()),
               PreconditionError);
  SimConfig bad = baseConfig();
  bad.packetFlits = 0;
  EXPECT_THROW(simulatePhase(t, m, {}, bad), PreconditionError);
}

// --- Deterministic parallel stepping -------------------------------------

/// A multi-stage workload with network, local, and NIC-contended traffic:
/// 2 ranks per node on a 4x4 torus, three stages (neighbour shift, on-node
/// partner exchange, bisection-crossing shift) with varied message sizes.
std::vector<Phase> mixedStages(RankId ranks) {
  std::vector<Phase> stages(3);
  for (RankId r = 0; r < ranks; ++r) {
    stages[0].push_back({r, static_cast<RankId>((r + 5) % ranks),
                         static_cast<std::int64_t>(r * 7 % 50 + 1)});
    stages[1].push_back({r, static_cast<RankId>(r ^ 1), 16});
    stages[2].push_back({r, static_cast<RankId>((r + ranks / 2) % ranks),
                         static_cast<std::int64_t>(r % 3 * 20 + 4)});
  }
  return stages;
}

void expectSameResult(const PhaseResult& a, const PhaseResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.networkFlits, b.networkFlits);
  EXPECT_EQ(a.localFlits, b.localFlits);
  EXPECT_EQ(a.flitHops, b.flitHops);
  EXPECT_EQ(a.maxChannelFlits, b.maxChannelFlits);
  EXPECT_EQ(a.avgChannelFlits, b.avgChannelFlits);
  ASSERT_EQ(a.dimFlits.size(), b.dimFlits.size());
  for (std::size_t d = 0; d < a.dimFlits.size(); ++d) {
    EXPECT_EQ(a.dimFlits[d], b.dimFlits[d]) << "dim " << d;
  }
}

TEST(Simulator, BitIdenticalAcrossThreadCounts) {
  // The determinism contract of the sharded engine: every RoutingMode
  // (including the RNG-consuming adaptive and uniform modes) produces a
  // bit-identical PhaseResult for any worker count.
  const Torus t = Torus::torus(Shape{4, 4});
  Mapping m(32);
  for (RankId r = 0; r < 32; ++r) m.assign(r, r / 2, r % 2);
  const auto stages = mixedStages(32);
  for (const RoutingMode mode :
       {RoutingMode::MinimalAdaptive, RoutingMode::UniformMinimal,
        RoutingMode::DimensionOrder}) {
    SimConfig cfg = baseConfig();
    cfg.routing = mode;
    cfg.threads = 1;
    const PhaseResult serial = simulateIteration(t, m, stages, cfg);
    EXPECT_GT(serial.cycles, 0);
    for (const int threads : {2, 8}) {
      cfg.threads = threads;
      expectSameResult(serial, simulateIteration(t, m, stages, cfg));
    }
  }
}

TEST(Simulator, InsidePoolTaskMatchesOwnPool) {
  const Torus t = Torus::torus(Shape{4, 4});
  Mapping m(32);
  for (RankId r = 0; r < 32; ++r) m.assign(r, r / 2, r % 2);
  const auto stages = mixedStages(32);
  SimConfig cfg = baseConfig();
  cfg.threads = 4;
  const PhaseResult own = simulateIteration(t, m, stages, cfg);
  // Reentrancy: simulating from inside a pool task must degrade to one
  // participant (not deadlock) and still produce the identical result.
  // Two tasks, since parallelFor(1, ...) runs inline outside any region.
  exec::ThreadPool pool(2);
  std::vector<PhaseResult> nested(2);
  pool.parallelFor(2, [&](std::size_t i) {
    nested[i] = simulateIteration(t, m, stages, cfg);
  });
  for (const PhaseResult& r : nested) expectSameResult(own, r);
}

// --- Bit-for-bit pin ------------------------------------------------------

/// FNV-1a over 64-bit words: integers by value, doubles by bit pattern.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const PhaseResult& r) {
    add(r.cycles);
    add(r.networkFlits);
    add(r.localFlits);
    add(r.flitHops);
    add(r.maxChannelFlits);
    add(r.avgChannelFlits);
    add(static_cast<std::int64_t>(r.dimFlits.size()));
    for (const double f : r.dimFlits) add(f);
  }
  void add(const simnet::LinkLoadCapture& c) {
    add(c.sampleCycles);
    add(static_cast<std::int64_t>(c.channels.size()));
    for (const simnet::ChannelLoad& ch : c.channels) {
      add(static_cast<std::int64_t>(ch.src));
      add(static_cast<std::int64_t>(ch.dst));
      add(static_cast<std::int64_t>(ch.dim));
      add(static_cast<std::int64_t>(ch.dir));
      add(ch.flits);
    }
    add(static_cast<std::int64_t>(c.samples.size()));
    for (const simnet::LinkLoadSample& s : c.samples) {
      add(s.cycle);
      add(s.queuedFlits);
      add(s.maxQueueFlits);
      add(static_cast<std::int64_t>(s.activeLinks));
    }
  }
};

/// Seeded multi-stage traffic: every rank sends one or two messages per
/// stage to random ranks (itself and co-located ranks included), some of
/// zero bytes.
std::vector<Phase> seededStages(RankId ranks, std::size_t numStages,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Phase> stages(numStages);
  for (Phase& phase : stages) {
    for (RankId r = 0; r < ranks; ++r) {
      const std::uint64_t count = 1 + rng.nextBounded(2);
      for (std::uint64_t i = 0; i < count; ++i) {
        const auto dst = static_cast<RankId>(
            rng.nextBounded(static_cast<std::uint64_t>(ranks)));
        const auto bytes = rng.nextBounded(5) == 0
                               ? std::int64_t{0}
                               : static_cast<std::int64_t>(rng.nextBounded(41));
        phase.push_back({r, dst, bytes});
      }
    }
  }
  return stages;
}

struct GridCase {
  Torus topo;
  Mapping mapping;
  std::vector<Phase> stages;
  SimConfig cfg;
};

/// Shapes (torus, mesh, a torus wrapping only dimension 0, 4-D), one and
/// two ranks per node, every routing mode, packet sizes 1, 3 and 16 flits
/// and NIC bandwidths 1, 4 and 7, with link capture sampling every few
/// cycles.
std::vector<GridCase> goldenGrid() {
  const std::vector<Torus> shapes = {
      Torus::torus(Shape{4, 4}), Torus::mesh(Shape{3, 4}),
      Torus::mixed(Shape{4, 3}, {1, 0}), Torus::torus(Shape{2, 2, 2, 2})};
  std::vector<GridCase> grid;
  std::uint64_t seed = 1;
  for (const Torus& t : shapes) {
    for (const int conc : {1, 2}) {
      const auto ranks = static_cast<RankId>(t.numNodes() * conc);
      Mapping m(ranks);
      for (RankId r = 0; r < ranks; ++r) {
        m.assign(r, static_cast<NodeId>(r / conc), r % conc);
      }
      const auto stages = seededStages(ranks, 2 + seed % 2, seed);
      ++seed;
      for (const RoutingMode mode :
           {RoutingMode::MinimalAdaptive, RoutingMode::UniformMinimal,
            RoutingMode::DimensionOrder}) {
        for (const int packetFlits : {1, 3, 16}) {
          for (const int injection : {1, 4, 7}) {
            SimConfig cfg = baseConfig();
            cfg.routing = mode;
            cfg.packetFlits = packetFlits;
            cfg.injectionBandwidth = injection;
            cfg.statSampleCycles = 5;
            cfg.seed = seed;
            grid.push_back({t, m, stages, cfg});
          }
        }
      }
    }
  }
  return grid;
}

std::uint64_t caseDigest(const GridCase& c, int threads) {
  simnet::LinkLoadCapture capture;
  SimConfig cfg = c.cfg;
  cfg.linkCapture = &capture;
  cfg.threads = threads;
  Digest digest;
  digest.add(simulateIteration(c.topo, c.mapping, c.stages, cfg));
  digest.add(capture);
  return digest.h;
}

TEST(Simulator, GoldenDigest) {
  // Pins every PhaseResult field and the link capture bit for bit, so an
  // engine change that claims identical results must reproduce this value.
  constexpr std::uint64_t kGolden = 0xcef8375f35f0d276ull;
  const std::vector<GridCase> grid = goldenGrid();
  Digest all;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const std::uint64_t serial = caseDigest(grid[i], 1);
    all.add(serial);
    // Every tenth case again at 3 workers: the stride is coprime with the
    // 9 (packet size, bandwidth) pairs, so each pair is covered.
    if (i % 10 == 0) {
      EXPECT_EQ(caseDigest(grid[i], 3), serial) << "case " << i;
    }
  }
  EXPECT_EQ(all.h, kGolden) << std::hex << "0x" << all.h;
}

// --- Liveness -------------------------------------------------------------

TEST(Simulator, HeartbeatAdvancesWithCycles) {
  // The watchdog reads Pulse::SimnetCycles; the cycle loop must advance it
  // by 64 for every 64 simulated cycles, whatever the worker count.
  obs::Heartbeats& hb = obs::Heartbeats::instance();
  const bool wasEnabled = hb.enabled();
  hb.setEnabled(true);
  const Torus t = Torus::torus(Shape{4, 4});
  Mapping m(32);
  for (RankId r = 0; r < 32; ++r) m.assign(r, r / 2, r % 2);
  const auto stages = mixedStages(32);
  for (const int threads : {1, 3}) {
    SimConfig cfg = baseConfig();
    cfg.threads = threads;
    const std::uint64_t before = hb.value(obs::Pulse::SimnetCycles);
    const PhaseResult r = simulateIteration(t, m, stages, cfg);
    const std::uint64_t beats = hb.value(obs::Pulse::SimnetCycles) - before;
    ASSERT_GE(r.cycles, 128);
    EXPECT_GE(beats, static_cast<std::uint64_t>(64 * (r.cycles / 64)))
        << "threads " << threads;
  }
  hb.setEnabled(wasEnabled);
}

// --- NIC fairness ---------------------------------------------------------

TEST(Simulator, ColocatedRanksShareNicRoundRobin) {
  // Ranks 0 and 1 share node 0 of a 4-node mesh; rank 2 sits at the far
  // end. Stage 0: rank 0 injects a 32-flit train, rank 1 a single 4-flit
  // packet, both to rank 2. Stage 1: rank 1 sends 4 more flits, gated on
  // its stage-0 completion. With the documented round-robin release the
  // NIC order is A0 B0 A1..A7, so rank 1's packet leaves the NIC at cycle
  // 8 and lands (3 hops of 4 cycles) at cycle 19; its stage-1 packet then
  // waits out the train (NIC busy through 35), crosses at 36-39, and lands
  // at 51 — makespan 52. Under the old rank-serialized release B0 exits
  // the NIC only after the whole train (cycles 32-35), pushing the
  // makespan to 64.
  const Torus t = Torus::mesh(Shape{4});
  Mapping m(3);
  m.assign(0, 0, 0);
  m.assign(1, 0, 1);
  m.assign(2, 3, 0);
  SimConfig cfg = baseConfig();
  cfg.routing = RoutingMode::DimensionOrder;
  const std::vector<Phase> stages{{{0, 2, 32}, {1, 2, 4}}, {{1, 2, 4}}};
  const PhaseResult r = simulateIteration(t, m, stages, cfg);
  EXPECT_EQ(r.networkFlits, 40);
  EXPECT_EQ(r.flitHops, 120);
  EXPECT_EQ(r.cycles, 52);
}

// --- Telemetry ------------------------------------------------------------

TEST(Simulator, OccupancySeriesGetsClosingSample) {
  const Torus t = Torus::mesh(Shape{4});
  const Mapping m = oneRankPerNode(t);
  const Phase phase{{0, 3, 40}};
  simnet::LinkLoadCapture capture;
  SimConfig cfg = baseConfig();
  cfg.linkCapture = &capture;
  // Period far longer than the run: without the closing sample the series
  // would be the single cycle-0 point and the drain would be invisible.
  cfg.statSampleCycles = 1 << 20;
  const PhaseResult r = simulatePhase(t, m, phase, cfg);
  ASSERT_EQ(capture.samples.size(), 2u);
  EXPECT_EQ(capture.samples.front().cycle, 0);
  EXPECT_EQ(capture.samples.back().cycle, r.cycles);
  EXPECT_EQ(capture.samples.back().queuedFlits, 0);  // fully drained
  EXPECT_EQ(capture.samples.back().activeLinks, 0);

  // Short period: the closing sample still lands exactly at the makespan.
  cfg.statSampleCycles = 8;
  const PhaseResult r2 = simulatePhase(t, m, phase, cfg);
  ASSERT_GE(capture.samples.size(), 2u);
  EXPECT_EQ(capture.samples.back().cycle, r2.cycles);
  EXPECT_EQ(capture.samples.back().queuedFlits, 0);
}

// --- Flow-level fidelity --------------------------------------------------

TEST(Simulator, FlowModeConservesTrafficExactly) {
  // Every minimal route crosses the same per-dimension hop counts, so the
  // conservation quantities must match the cycle sim bit for bit (dimFlits
  // up to float summation order) under ANY routing mode.
  const Torus t = Torus::torus(Shape{4, 4});
  Mapping m(32);
  for (RankId r = 0; r < 32; ++r) m.assign(r, r / 2, r % 2);
  const auto stages = mixedStages(32);
  for (const RoutingMode mode :
       {RoutingMode::MinimalAdaptive, RoutingMode::UniformMinimal,
        RoutingMode::DimensionOrder}) {
    SimConfig cfg = baseConfig();
    cfg.routing = mode;
    const PhaseResult cyc = simulateIteration(t, m, stages, cfg);
    cfg.fidelity = simnet::SimFidelity::Flow;
    const PhaseResult flow = simulateIteration(t, m, stages, cfg);
    EXPECT_EQ(flow.networkFlits, cyc.networkFlits);
    EXPECT_EQ(flow.localFlits, cyc.localFlits);
    EXPECT_EQ(flow.flitHops, cyc.flitHops);
    ASSERT_EQ(flow.dimFlits.size(), cyc.dimFlits.size());
    for (std::size_t d = 0; d < flow.dimFlits.size(); ++d) {
      EXPECT_NEAR(flow.dimFlits[d], cyc.dimFlits[d], 1e-6) << "dim " << d;
    }
  }
}

TEST(Simulator, FlowCyclesTrackCycleSim) {
  // The makespan estimate is not exact, but on uniform-minimal traffic it
  // must stay within a small factor of the measured cycle count — the same
  // property the simnet_micro ledger gate enforces on the committed
  // workload, checked here on a spread of shapes and patterns.
  for (const Shape& shape : {Shape{4, 4}, Shape{8}, Shape{2, 2, 2}}) {
    const Torus t = Torus::torus(shape);
    const Mapping m = oneRankPerNode(t);
    const RankId n = m.numRanks();
    Phase shift;
    Phase transpose;
    for (RankId r = 0; r < n; ++r) {
      shift.push_back({r, static_cast<RankId>((r + 1) % n), 64});
      transpose.push_back({r, static_cast<RankId>(n - 1 - r), 32});
    }
    for (const Phase& phase : {shift, transpose}) {
      SimConfig cfg = baseConfig();
      cfg.routing = RoutingMode::UniformMinimal;
      const PhaseResult cyc = simulatePhase(t, m, phase, cfg);
      cfg.fidelity = simnet::SimFidelity::Flow;
      const PhaseResult flow = simulatePhase(t, m, phase, cfg);
      ASSERT_GT(cyc.cycles, 0);
      const double ratio =
          static_cast<double>(flow.cycles) / static_cast<double>(cyc.cycles);
      EXPECT_GT(ratio, 0.3) << t.describe();
      EXPECT_LT(ratio, 3.0) << t.describe();
      // MCL estimate: expected load of the busiest channel can undershoot
      // the adaptive-free measured maximum, but not wildly.
      EXPECT_GT(flow.maxChannelFlits, 0.25 * cyc.maxChannelFlits);
    }
  }
}

TEST(Simulator, FlowModeFillsChannelMatrixOnly) {
  const Torus t = Torus::mesh(Shape{4});
  const Mapping m = oneRankPerNode(t);
  simnet::LinkLoadCapture capture;
  SimConfig cfg = baseConfig();
  cfg.linkCapture = &capture;
  cfg.fidelity = simnet::SimFidelity::Flow;
  const PhaseResult r = simulatePhase(t, m, {{0, 3, 40}}, cfg);
  EXPECT_GT(r.cycles, 0);
  EXPECT_FALSE(capture.channels.empty());
  EXPECT_TRUE(capture.samples.empty());  // no time axis without cycles
  std::int64_t heat = 0;
  for (const auto& c : capture.channels) heat += c.flits;
  EXPECT_EQ(heat, r.flitHops);  // expected loads sum to total traversals
}

TEST(Simulator, MappingQualityAffectsMakespan) {
  // A ring workload drains faster when neighbors are adjacent than when
  // scattered by a bit-reversal-like permutation.
  const Torus t = Torus::torus(Shape{8});
  Phase phase;
  for (RankId r = 0; r < 8; ++r) {
    phase.push_back({r, static_cast<RankId>((r + 1) % 8), 128});
  }
  Mapping good(8);
  for (RankId r = 0; r < 8; ++r) good.assign(r, r, 0);
  Mapping bad(8);
  const NodeId scatter[8] = {0, 4, 2, 6, 1, 5, 3, 7};
  for (RankId r = 0; r < 8; ++r) bad.assign(r, scatter[r], 0);
  const auto rg = simulatePhase(t, good, phase, baseConfig());
  const auto rb = simulatePhase(t, bad, phase, baseConfig());
  EXPECT_LT(rg.cycles, rb.cycles);
  EXPECT_LT(rg.flitHops, rb.flitHops);
}

}  // namespace
}  // namespace rahtm
