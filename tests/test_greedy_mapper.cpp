// Tests for the routing-unaware greedy hop-bytes baseline mapper.

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/greedy_mapper.hpp"
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

TEST(GreedyMapper, ProducesValidMappings) {
  const Torus t = Torus::torus(Shape{4, 4, 2});
  const Workload w = makeBT(64);
  GreedyHopBytesMapper mapper(w.logicalGrid);
  const Mapping m = mapper.map(w.commGraph(), t, 2);
  EXPECT_TRUE(m.validate(t, 2).empty()) << m.validate(t, 2);
}

TEST(GreedyMapper, PlacesHeavyPairAdjacent) {
  // Two clusters exchanging heavily end up at distance 1 — the defining
  // (and under MAR, counterproductive) behaviour of hop-bytes greed.
  const Torus t = Torus::mesh(Shape{2, 2});
  CommGraph g(4);
  g.addExchange(0, 1, 100);
  g.addExchange(2, 3, 1);
  GreedyHopBytesMapper mapper;
  const Mapping m = mapper.map(g, t, 1);
  EXPECT_EQ(t.distance(m.nodeOf(0), m.nodeOf(1)), 1);
}

TEST(GreedyMapper, BeatsRandomOnHopBytes) {
  const Torus t = Torus::torus(Shape{4, 4});
  const Workload w = makeCG(32);
  const CommGraph g = w.commGraph();
  GreedyHopBytesMapper greedy(w.logicalGrid);
  RandomMapper random(11);
  const double hbGreedy = hopBytes(g, t, greedy.map(g, t, 2).nodeVector());
  const double hbRandom = hopBytes(g, t, random.map(g, t, 2).nodeVector());
  EXPECT_LT(hbGreedy, hbRandom);
}

TEST(GreedyMapper, ConcentrationClusteringAbsorbsPairs) {
  // Heavy consecutive pairs must land on the same node (the shared
  // tile-search clustering at work).
  const Torus t = Torus::torus(Shape{2, 2, 2});
  CommGraph g(16);
  for (RankId r = 0; r < 16; r += 2) g.addExchange(r, r + 1, 500);
  for (RankId r = 0; r + 2 < 16; ++r) g.addExchange(r, r + 2, 1);
  GreedyHopBytesMapper mapper(Shape{1, 16});
  const Mapping m = mapper.map(g, t, 2);
  for (RankId r = 0; r < 16; r += 2) {
    EXPECT_EQ(m.nodeOf(r), m.nodeOf(r + 1)) << r;
  }
}

TEST(GreedyMapper, HandlesEmptyGraph) {
  const Torus t = Torus::torus(Shape{2, 2});
  const CommGraph g(8);
  GreedyHopBytesMapper mapper;
  const Mapping m = mapper.map(g, t, 2);
  EXPECT_TRUE(m.validate(t, 2).empty());
}

TEST(GreedyMapper, RejectsMismatchedRanks) {
  const Torus t = Torus::torus(Shape{2, 2});
  CommGraph g(7);
  GreedyHopBytesMapper mapper;
  EXPECT_THROW(mapper.map(g, t, 2), PreconditionError);
}

// The mapper's node vectors and their hop-bytes on five tori at
// concentrations 1 to 8, pinned as computed at commit d12621b. A change to
// the placement cost, its summation order or the distances it reads fails
// here.
TEST(GreedyMapper, PinnedOutputs) {
  const PinnedMap pins[] = {
    {"BT", Shape{4, 4, 4}, 1, 0x12cdf20b3bbc5793ull, 2686976},
    {"SP", Shape{4, 4, 4}, 1, 0x12cdf20b3bbc5793ull, 1611792},
    {"CG", Shape{4, 4, 4}, 1, 0xc6d70b7b606623e3ull, 1499136},
    {"BT", Shape{4, 4, 4}, 4, 0x0a02d800eca97783ull, 4194304},
    {"SP", Shape{4, 4, 4}, 4, 0x0a02d800eca97783ull, 2515968},
    {"CG", Shape{4, 4, 4}, 4, 0x6f4a330d0db8bf83ull, 4194304},
    {"BT", Shape{8, 8}, 1, 0x4f691f18ee1ef923ull, 3014656},
    {"SP", Shape{8, 8}, 1, 0x4f691f18ee1ef923ull, 1808352},
    {"CG", Shape{8, 8}, 1, 0xcab509e0d13f1e43ull, 2048000},
    {"BT", Shape{8, 8}, 4, 0x51a8c1fc30818703ull, 7290880},
    {"SP", Shape{8, 8}, 4, 0x51a8c1fc30818703ull, 4373460},
    {"CG", Shape{8, 8}, 4, 0xcd32074d19912b83ull, 6193152},
    {"BT", Shape{2, 2, 2, 2, 2}, 2, 0x450d8e692573c983ull, 1835008},
    {"SP", Shape{2, 2, 2, 2, 2}, 2, 0x450d8e692573c983ull, 1100736},
    {"CG", Shape{2, 2, 2, 2, 2}, 2, 0x3877321178f08983ull, 958464},
    {"BT", Shape{2, 2, 2, 2, 2}, 8, 0xeb6785bb6fdf9b83ull, 3670016},
    {"SP", Shape{2, 2, 2, 2, 2}, 8, 0xeb6785bb6fdf9b83ull, 2201472},
    {"CG", Shape{2, 2, 2, 2, 2}, 8, 0x0df2f8756658db83ull, 3317760},
    {"BT", Shape{4, 4, 4, 4}, 1, 0x46c4aade079cfb13ull, 11124736},
    {"SP", Shape{4, 4, 4, 4}, 1, 0x46c4aade079cfb13ull, 6673212},
    {"CG", Shape{4, 4, 4, 4}, 1, 0xbb4c542921396953ull, 9543680},
    {"BT", Shape{4, 4, 4, 4}, 4, 0x4d8d35038d461403ull, 20004864},
    {"SP", Shape{4, 4, 4, 4}, 4, 0x4d8d35038d461403ull, 11999988},
    {"CG", Shape{4, 4, 4, 4}, 4, 0x1cd517e7904e6783ull, 28385280},
    {"BT", Shape{4, 4, 4, 4, 2}, 2, 0x86e478eebcc3d083ull, 27262976},
    {"SP", Shape{4, 4, 4, 4, 2}, 2, 0x86e478eebcc3d083ull, 16353792},
    {"CG", Shape{4, 4, 4, 4, 2}, 2, 0xa71eaaf3660f88e3ull, 38969344},
  };
  for (const PinnedMap& p : pins) {
    const Torus t = Torus::torus(p.shape);
    const Workload w = makeNasByName(
        p.benchmark, static_cast<RankId>(t.numNodes() * p.concentration));
    const CommGraph g = w.commGraph();
    GreedyHopBytesMapper mapper(w.logicalGrid);
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
