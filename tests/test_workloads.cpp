// Tests for the synthetic NAS workload generators: structure (partner sets,
// phase counts), symmetry, volume accounting and error handling.

#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

TEST(WorkloadBT, MultipartitionStructure) {
  const Workload w = makeBT(16);  // 4x4 process grid
  EXPECT_EQ(w.name, "BT");
  EXPECT_EQ(w.ranks, 16);
  EXPECT_EQ(w.phases.size(), 3u);  // x, y, z sweeps
  EXPECT_EQ(w.logicalGrid, (Shape{4, 4}));

  // Every rank sends exactly once per sweep direction (forward) and once
  // back: 2 messages per rank per phase.
  for (const simnet::Phase& phase : w.phases) {
    std::vector<int> sendCount(16, 0);
    for (const simnet::Message& m : phase) {
      ++sendCount[static_cast<std::size_t>(m.src)];
      EXPECT_NE(m.src, m.dst);
      EXPECT_GT(m.bytes, 0);
    }
    for (const int c : sendCount) EXPECT_EQ(c, 2);
  }

  // Per-rank peer set: 6 distinct neighbors (x/y successors+predecessors
  // and the two diagonal z-sweep partners).
  const CommGraph g = w.commGraph();
  EXPECT_EQ(g.maxDegree(), 6);
}

TEST(WorkloadBT, RequiresSquareRankCount) {
  EXPECT_THROW(makeBT(12), PreconditionError);
  EXPECT_NO_THROW(makeBT(25));
}

TEST(WorkloadSP, ThinnerThanBT) {
  const NasParams params;
  const Workload bt = makeBT(16, params);
  const Workload sp = makeSP(16, params);
  EXPECT_LT(sp.bytesPerIteration(), bt.bytesPerIteration());
  EXPECT_EQ(sp.phases.size(), bt.phases.size());
  EXPECT_EQ(sp.commGraph().numFlows(), bt.commGraph().numFlows());
}

TEST(WorkloadCG, PowerOfTwoGridAndPhases) {
  const Workload w = makeCG(64);  // k=6: 8x8 grid
  EXPECT_EQ(w.ranks, 64);
  EXPECT_EQ(w.logicalGrid, (Shape{8, 8}));
  // 1 transpose phase + log2(npcols)=3 reduce phases.
  EXPECT_EQ(w.phases.size(), 4u);
  EXPECT_DOUBLE_EQ(w.commFraction, 0.70);
}

TEST(WorkloadCG, NonSquareGridUsesPairedTranspose) {
  const Workload w = makeCG(32);  // k=5: nprows=4, npcols=8
  EXPECT_EQ(w.logicalGrid, (Shape{4, 8}));
  EXPECT_EQ(w.phases.size(), 1u + 3u);
  // The transpose phase must be an involution: if a sends to b, b sends to a.
  const simnet::Phase& transpose = w.phases[0];
  std::set<std::pair<RankId, RankId>> pairs;
  for (const simnet::Message& m : transpose) pairs.insert({m.src, m.dst});
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(pairs.count({b, a})) << a << "<->" << b;
  }
}

TEST(WorkloadCG, ReducePartnersAreXorStrides) {
  const Workload w = makeCG(16);  // 4x4 grid, npcols=4: strides 2, 1
  ASSERT_EQ(w.phases.size(), 3u);
  // Stride-2 phase: rank 0 (row 0, col 0) exchanges with col 2 -> rank 2.
  bool found = false;
  for (const simnet::Message& m : w.phases[1]) {
    if (m.src == 0) {
      EXPECT_EQ(m.dst, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Stride-1 phase: rank 0 exchanges with rank 1.
  for (const simnet::Message& m : w.phases[2]) {
    if (m.src == 0) {
      EXPECT_EQ(m.dst, 1);
    }
  }
}

TEST(WorkloadCG, RejectsNonPowerOfTwo) {
  EXPECT_THROW(makeCG(24), PreconditionError);
  EXPECT_THROW(makeCG(1), PreconditionError);
}

TEST(WorkloadHalo3d, SixNeighborsOnTorus) {
  const Workload w = makeHalo3d(Shape{4, 4, 4}, 1024);
  EXPECT_EQ(w.ranks, 64);
  const CommGraph g = w.commGraph();
  EXPECT_EQ(g.maxDegree(), 6);
  // Symmetric exchanges.
  for (const Flow& f : g.flows()) {
    EXPECT_DOUBLE_EQ(g.volume(f.dst, f.src), f.bytes);
  }
}

TEST(WorkloadRandom, PermutationTraffic) {
  const Workload w = makeRandomPairs(32, 512, /*seed=*/3);
  ASSERT_EQ(w.phases.size(), 1u);
  std::vector<int> sends(32, 0);
  for (const simnet::Message& m : w.phases[0]) {
    ++sends[static_cast<std::size_t>(m.src)];
  }
  for (const int s : sends) EXPECT_LE(s, 1);
  // Deterministic per seed.
  const Workload w2 = makeRandomPairs(32, 512, 3);
  EXPECT_EQ(w.phases[0].size(), w2.phases[0].size());
}

TEST(WorkloadScaling, MessageBytesScaleVolume) {
  NasParams small, large;
  small.messageBytes = 1024;
  large.messageBytes = 4096;
  EXPECT_DOUBLE_EQ(makeBT(16, large).bytesPerIteration(),
                   4 * makeBT(16, small).bytesPerIteration());
}

TEST(WorkloadRegistry, LooksUpByName) {
  EXPECT_EQ(makeNasByName("BT", 16).name, "BT");
  EXPECT_EQ(makeNasByName("sp", 16).name, "SP");
  EXPECT_EQ(makeNasByName("cg", 16).name, "CG");
  EXPECT_THROW(makeNasByName("LU", 16), ParseError);
}

TEST(WorkloadGraph, AggregatesAllPhases) {
  const Workload w = makeCG(16);
  const CommGraph g = w.commGraph();
  double phaseBytes = 0;
  for (const simnet::Phase& p : w.phases) {
    for (const simnet::Message& m : p) {
      phaseBytes += static_cast<double>(m.bytes);
    }
  }
  EXPECT_DOUBLE_EQ(g.totalVolume(), phaseBytes);
  EXPECT_DOUBLE_EQ(w.bytesPerIteration(), phaseBytes);
}

}  // namespace
}  // namespace rahtm
