// Tests for the recursive-bisection (Kernighan-Lin) baseline mapper.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/bisection_mapper.hpp"
#include "graph/stats.hpp"
#include "mapping/permutation.hpp"
#include "routing/oblivious.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

/// FNV-1a over the node ids' little-endian bytes.
std::uint64_t nodeVectorHash(const std::vector<NodeId>& nodes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const NodeId n : nodes) {
    const auto u = static_cast<std::uint32_t>(n);
    for (int b = 0; b < 4; ++b) {
      h ^= (u >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct PinnedMap {
  const char* benchmark;
  Shape shape;
  int concentration;
  std::uint64_t nodeHash;  ///< nodeVectorHash of the mapping
  double hopBytes;
};

TEST(BisectionMapper, ProducesValidMappings) {
  const Torus t = Torus::torus(Shape{4, 4, 2});
  const Workload w = makeBT(64);
  RecursiveBisectionMapper mapper(w.logicalGrid);
  const Mapping m = mapper.map(w.commGraph(), t, 2);
  EXPECT_TRUE(m.validate(t, 2).empty()) << m.validate(t, 2);
}

TEST(BisectionMapper, KeepsCommunityTogether) {
  // Two dense 4-cliques with one weak bridge: the first bisection must cut
  // the bridge, placing each clique in its own machine half.
  const Torus t = Torus::torus(Shape{4, 2});
  CommGraph g(8);
  for (RankId a = 0; a < 4; ++a) {
    for (RankId b = static_cast<RankId>(a + 1); b < 4; ++b) {
      g.addExchange(a, b, 50);
      g.addExchange(a + 4, b + 4, 50);
    }
  }
  g.addExchange(0, 4, 1);  // weak bridge
  RecursiveBisectionMapper mapper;
  const Mapping m = mapper.map(g, t, 1);
  // Cliques land in distinct halves of the long dimension.
  std::set<int> halvesA, halvesB;
  for (RankId r = 0; r < 4; ++r) {
    halvesA.insert(t.coordOf(m.nodeOf(r))[0] / 2);
    halvesB.insert(t.coordOf(m.nodeOf(static_cast<RankId>(r + 4)))[0] / 2);
  }
  EXPECT_EQ(halvesA.size(), 1u);
  EXPECT_EQ(halvesB.size(), 1u);
  EXPECT_NE(*halvesA.begin(), *halvesB.begin());
}

TEST(BisectionMapper, BeatsRandomOnHopBytes) {
  const Torus t = Torus::torus(Shape{4, 4});
  const Workload w = makeCG(32);
  const CommGraph g = w.commGraph();
  RecursiveBisectionMapper rcb(w.logicalGrid);
  RandomMapper random(5);
  EXPECT_LT(hopBytes(g, t, rcb.map(g, t, 2).nodeVector()),
            hopBytes(g, t, random.map(g, t, 2).nodeVector()));
}

TEST(BisectionMapper, DeterministicPerSeed) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Workload w = makeCG(16);
  RecursiveBisectionMapper a(w.logicalGrid), b(w.logicalGrid);
  const Mapping ma = a.map(w.commGraph(), t, 2);
  const Mapping mb = b.map(w.commGraph(), t, 2);
  for (RankId r = 0; r < 16; ++r) EXPECT_EQ(ma.nodeOf(r), mb.nodeOf(r));
}

TEST(BisectionMapper, RejectsNonPowerOfTwoMachine) {
  const Torus t = Torus::torus(Shape{3, 2});
  CommGraph g(6);
  RecursiveBisectionMapper mapper;
  EXPECT_THROW(mapper.map(g, t, 1), PreconditionError);
}

// The mapper's node vectors and their hop-bytes, pinned as computed at
// commit d12621b. A change to the Kernighan-Lin swap order, its gains or
// the random split fails here.
TEST(BisectionMapper, PinnedOutputs) {
  const PinnedMap pins[] = {
    {"BT", Shape{4, 4, 4}, 1, 0x7be711508c5c1923ull, 3637248},
    {"SP", Shape{4, 4, 4}, 1, 0x7be711508c5c1923ull, 2181816},
    {"CG", Shape{4, 4, 4}, 1, 0x8fcf4d8d832194d3ull, 2187264},
    {"BT", Shape{4, 4, 4}, 4, 0xbb1da0477ab9b583ull, 8323072},
    {"SP", Shape{4, 4, 4}, 4, 0xbb1da0477ab9b583ull, 4992624},
    {"CG", Shape{4, 4, 4}, 4, 0xa19a46a6d5c6ea83ull, 5955584},
    {"BT", Shape{8, 8}, 1, 0xdaaf2da64b9f42c3ull, 4440064},
    {"SP", Shape{8, 8}, 1, 0xdaaf2da64b9f42c3ull, 2663388},
    {"CG", Shape{8, 8}, 1, 0x96ff7760da2a79f3ull, 2777088},
    {"BT", Shape{8, 8}, 4, 0x5aa6c978900eb883ull, 9682944},
    {"SP", Shape{8, 8}, 4, 0x5aa6c978900eb883ull, 5808348},
    {"CG", Shape{8, 8}, 4, 0x3d4a781783e6c183ull, 8175616},
    {"BT", Shape{2, 2, 2, 2, 2}, 2, 0x92515d50d9910643ull, 2752512},
    {"SP", Shape{2, 2, 2, 2, 2}, 2, 0x92515d50d9910643ull, 1651104},
    {"CG", Shape{2, 2, 2, 2, 2}, 2, 0xd7238493c0899543ull, 1236992},
    {"BT", Shape{2, 2, 2, 2, 2}, 8, 0x755c59a5af14fb83ull, 5963776},
    {"SP", Shape{2, 2, 2, 2, 2}, 8, 0x755c59a5af14fb83ull, 3577392},
    {"CG", Shape{2, 2, 2, 2, 2}, 8, 0x9ad69bbe408c7b83ull, 3661824},
    {"BT", Shape{4, 4, 4, 4}, 1, 0xe6cfac0c6c795f33ull, 16203776},
    {"SP", Shape{4, 4, 4, 4}, 1, 0xe6cfac0c6c795f33ull, 9719892},
    {"CG", Shape{4, 4, 4, 4}, 1, 0xa8a7fce63a87a743ull, 13869056},
    {"BT", Shape{4, 4, 4, 4}, 4, 0xc63b7c5405429dc3ull, 35733504},
    {"SP", Shape{4, 4, 4, 4}, 4, 0xc63b7c5405429dc3ull, 21434868},
    {"CG", Shape{4, 4, 4, 4}, 4, 0x9ca0ecd633854983ull, 41893888},
    {"BT", Shape{4, 4, 4, 4, 2}, 2, 0x74b64c7282cef103ull, 52330496},
    {"SP", Shape{4, 4, 4, 4, 2}, 2, 0x74b64c7282cef103ull, 31390632},
    {"CG", Shape{4, 4, 4, 4, 2}, 2, 0x1154c16aea3df2d3ull, 56393728},
  };
  for (const PinnedMap& p : pins) {
    const Torus t = Torus::torus(p.shape);
    const Workload w = makeNasByName(
        p.benchmark, static_cast<RankId>(t.numNodes() * p.concentration));
    const CommGraph g = w.commGraph();
    RecursiveBisectionMapper mapper(w.logicalGrid);
    const std::vector<NodeId> nodes =
        mapper.map(g, t, p.concentration).nodeVector();
    SCOPED_TRACE(std::string(p.benchmark) + " on " + t.describe() + " c" +
                 std::to_string(p.concentration));
    EXPECT_EQ(nodeVectorHash(nodes), p.nodeHash);
    EXPECT_EQ(hopBytes(g, t, nodes), p.hopBytes);
  }
}

}  // namespace
}  // namespace rahtm
