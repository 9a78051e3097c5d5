// Tests for the communication graph: coalescing, contraction, statistics,
// serialization round-trips and malformed-input handling.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/comm_graph.hpp"
#include "graph/stats.hpp"
#include "topology/torus.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

TEST(CommGraph, CoalescesParallelFlows) {
  CommGraph g(4);
  g.addFlow(0, 1, 10);
  g.addFlow(0, 1, 5);
  g.addFlow(1, 0, 3);
  EXPECT_EQ(g.numFlows(), 2u);
  EXPECT_DOUBLE_EQ(g.volume(0, 1), 15);
  EXPECT_DOUBLE_EQ(g.volume(1, 0), 3);
  EXPECT_DOUBLE_EQ(g.volume(2, 3), 0);
  EXPECT_DOUBLE_EQ(g.totalVolume(), 18);
}

TEST(CommGraph, DropsSelfFlowsAndZeroVolume) {
  CommGraph g(2);
  g.addFlow(1, 1, 100);
  g.addFlow(0, 1, 0);
  EXPECT_EQ(g.numFlows(), 0u);
}

TEST(CommGraph, GrowsRankSpace) {
  CommGraph g;
  g.addFlow(3, 7, 1);
  EXPECT_EQ(g.numRanks(), 8);
}

TEST(CommGraph, ExchangeAddsBothDirections) {
  CommGraph g(2);
  g.addExchange(0, 1, 4);
  EXPECT_DOUBLE_EQ(g.volume(0, 1), 4);
  EXPECT_DOUBLE_EQ(g.volume(1, 0), 4);
}

TEST(CommGraph, MaxDegreeCountsDistinctPeers) {
  CommGraph g(5);
  g.addFlow(0, 1, 1);
  g.addFlow(0, 2, 1);
  g.addFlow(3, 0, 1);
  g.addFlow(1, 2, 1);
  EXPECT_EQ(g.maxDegree(), 3);  // rank 0 talks with {1,2,3}
}

TEST(CommGraph, UndirectedMergesPairs) {
  CommGraph g(3);
  g.addFlow(0, 1, 2);
  g.addFlow(1, 0, 3);
  g.addFlow(2, 1, 7);
  const auto und = g.undirectedFlows();
  ASSERT_EQ(und.size(), 2u);
  EXPECT_DOUBLE_EQ(und[0].bytes, 5);
  EXPECT_DOUBLE_EQ(und[1].bytes, 7);
  EXPECT_LT(und[0].src, und[0].dst);
}

TEST(CommGraph, RelabelPreservesVolumes) {
  CommGraph g(3);
  g.addFlow(0, 1, 5);
  g.addFlow(1, 2, 7);
  const CommGraph r = g.relabeled({2, 0, 1});
  EXPECT_DOUBLE_EQ(r.volume(2, 0), 5);
  EXPECT_DOUBLE_EQ(r.volume(0, 1), 7);
  EXPECT_THROW(g.relabeled({0, 0, 1}), PreconditionError);
  EXPECT_THROW(g.relabeled({0, 1}), PreconditionError);
}

TEST(Contraction, SplitsIntraAndInterVolume) {
  CommGraph g(4);
  g.addFlow(0, 1, 10);  // same cluster
  g.addFlow(0, 2, 4);   // cross
  g.addFlow(3, 1, 6);   // cross
  const auto r = contract(g, {0, 0, 1, 1}, 2);
  EXPECT_DOUBLE_EQ(r.intraClusterVolume, 10);
  EXPECT_DOUBLE_EQ(r.interClusterVolume, 10);
  EXPECT_DOUBLE_EQ(r.clusterGraph.volume(0, 1), 4);
  EXPECT_DOUBLE_EQ(r.clusterGraph.volume(1, 0), 6);
  EXPECT_EQ(r.clusterGraph.numRanks(), 2);
}

TEST(Contraction, RejectsBadAssignments) {
  CommGraph g(2);
  g.addFlow(0, 1, 1);
  EXPECT_THROW(contract(g, {0}, 1), PreconditionError);
  EXPECT_THROW(contract(g, {0, 5}, 2), PreconditionError);
}

TEST(GraphIo, RoundTrips) {
  CommGraph g(6);
  g.addFlow(0, 5, 12.5);
  g.addFlow(2, 3, 1);
  std::stringstream ss;
  writeCommGraph(ss, g);
  const CommGraph back = readCommGraph(ss);
  EXPECT_TRUE(back == g);
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::stringstream ss("nonsense 4\n");
    EXPECT_THROW(readCommGraph(ss), ParseError);
  }
  {
    std::stringstream ss("ranks 4\n0 1\n");
    EXPECT_THROW(readCommGraph(ss), ParseError);
  }
  {
    std::stringstream ss("");
    EXPECT_THROW(readCommGraph(ss), ParseError);
  }
  for (const char* bytes : {"inf", "1e999", "-3", "nan"}) {
    std::stringstream ss(std::string("ranks 2\n0 1 ") + bytes + "\n");
    EXPECT_THROW(readCommGraph(ss), ParseError) << bytes;
  }
  // Ids are read as 64-bit integers and must lie in [0, ranks): a value
  // that a 32-bit cast would wrap, or one past the header's count, is an
  // error naming its line, not a rank that grows the graph.
  for (const char* flow :
       {"0 9 100", "9 0 100", "0 -1 5", "4294967297 1 5", "0 4 5"}) {
    std::stringstream ss(std::string("ranks 4\n# flows\n") + flow + "\n");
    try {
      readCommGraph(ss);
      ADD_FAILURE() << flow << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("comm graph line 3: ", 0), 0u)
          << e.what();
    }
  }
  for (const char* header : {"ranks 4294967297", "ranks -1"}) {
    std::stringstream ss(std::string(header) + "\n");
    EXPECT_THROW(readCommGraph(ss), ParseError) << header;
  }
  {
    // Comments and blank lines are fine.
    std::stringstream ss("# header\nranks 2\n\n0 1 3.5\n");
    const CommGraph g = readCommGraph(ss);
    EXPECT_DOUBLE_EQ(g.volume(0, 1), 3.5);
  }
}

// ---- CommGraph against a reference built from ordered containers ----------

using FlowCall = std::tuple<RankId, RankId, Volume>;

/// The graph contract restated with std::map: flows in order of first
/// appearance, repeated bytes added in call order, self-flows and zero
/// volumes dropped; the undirected view sums a pair's flows onto 0 in flow
/// order.
struct RefGraph {
  RankId ranks = 0;
  std::vector<Flow> flows;
  std::map<std::pair<RankId, RankId>, std::size_t> index;

  explicit RefGraph(RankId n) : ranks(n) {}

  void add(RankId src, RankId dst, Volume bytes) {
    ranks = std::max(ranks, std::max(src, dst) + 1);
    if (src == dst || bytes == 0) return;
    const auto [it, fresh] = index.try_emplace({src, dst}, flows.size());
    if (fresh) {
      flows.push_back(Flow{src, dst, bytes});
    } else {
      flows[it->second].bytes += bytes;
    }
  }
  Volume volume(RankId src, RankId dst) const {
    const auto it = index.find({src, dst});
    return it == index.end() ? 0 : flows[it->second].bytes;
  }
  std::vector<Flow> undirected() const {
    std::map<std::pair<RankId, RankId>, Volume> acc;
    for (const Flow& f : flows) acc[std::minmax(f.src, f.dst)] += f.bytes;
    std::vector<Flow> out;
    for (const auto& [pair, vol] : acc) {
      out.push_back(Flow{pair.first, pair.second, vol});
    }
    return out;
  }
  int maxDegree() const {
    std::vector<std::set<RankId>> peers(static_cast<std::size_t>(ranks));
    for (const Flow& f : flows) {
      peers[static_cast<std::size_t>(f.src)].insert(f.dst);
      peers[static_cast<std::size_t>(f.dst)].insert(f.src);
    }
    std::size_t best = 0;
    for (const auto& p : peers) best = std::max(best, p.size());
    return static_cast<int>(best);
  }
};

/// Equal flow lists: same order, same ids, same bytes bit for bit.
::testing::AssertionResult sameFlows(const std::vector<Flow>& got,
                                     const std::vector<Flow>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " flows, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].src != want[i].src || got[i].dst != want[i].dst ||
        std::bit_cast<std::uint64_t>(got[i].bytes) !=
            std::bit_cast<std::uint64_t>(want[i].bytes)) {
      return ::testing::AssertionFailure()
             << "flow " << i << ": (" << got[i].src << "," << got[i].dst
             << "," << got[i].bytes << "), want (" << want[i].src << ","
             << want[i].dst << "," << want[i].bytes << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

bool sameBits(Volume a, Volume b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Build a CommGraph and the reference from \p calls and compare every view:
/// flows, volume() of present and absent pairs, undirectedFlows(),
/// maxDegree(), contract() under a random assignment and relabeled() under
/// a random permutation.
void expectMatchesReference(RankId ranks, const std::vector<FlowCall>& calls,
                            Rng& rng) {
  CommGraph g(ranks);
  RefGraph ref(ranks);
  for (const auto& [src, dst, bytes] : calls) {
    g.addFlow(src, dst, bytes);
    ref.add(src, dst, bytes);
  }
  ASSERT_EQ(g.numRanks(), ref.ranks);
  ASSERT_TRUE(sameFlows(g.flows(), ref.flows));
  for (const Flow& f : ref.flows) {
    ASSERT_TRUE(sameBits(g.volume(f.src, f.dst), f.bytes));
  }
  const auto n = static_cast<std::int64_t>(g.numRanks());
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<RankId>(rng.nextInt(0, n));
    const auto b = static_cast<RankId>(rng.nextInt(0, n));
    ASSERT_TRUE(sameBits(g.volume(a, b), ref.volume(a, b))) << a << "," << b;
  }
  EXPECT_EQ(g.volume(-1, -1), 0);
  ASSERT_TRUE(sameFlows(g.undirectedFlows(), ref.undirected()));
  ASSERT_EQ(g.maxDegree(), ref.maxDegree());
  EXPECT_TRUE(g == g);

  const auto clusters = static_cast<ClusterId>(rng.nextInt(1, 64));
  std::vector<ClusterId> clusterOf(static_cast<std::size_t>(n));
  for (ClusterId& c : clusterOf) {
    c = static_cast<ClusterId>(rng.nextInt(0, clusters - 1));
  }
  RefGraph refCluster(clusters);
  Volume intra = 0;
  Volume inter = 0;
  for (const Flow& f : ref.flows) {
    const ClusterId cs = clusterOf[static_cast<std::size_t>(f.src)];
    const ClusterId cd = clusterOf[static_cast<std::size_t>(f.dst)];
    if (cs == cd) {
      intra += f.bytes;
    } else {
      inter += f.bytes;
      refCluster.add(cs, cd, f.bytes);
    }
  }
  const ContractionResult c = contract(g, clusterOf, clusters);
  ASSERT_EQ(c.clusterGraph.numRanks(), clusters);
  ASSERT_TRUE(sameFlows(c.clusterGraph.flows(), refCluster.flows));
  ASSERT_TRUE(sameBits(c.intraClusterVolume, intra));
  ASSERT_TRUE(sameBits(c.interClusterVolume, inter));

  std::vector<RankId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  RefGraph refPerm(g.numRanks());
  for (const Flow& f : ref.flows) {
    refPerm.add(perm[static_cast<std::size_t>(f.src)],
                perm[static_cast<std::size_t>(f.dst)], f.bytes);
  }
  const CommGraph r = g.relabeled(perm);
  ASSERT_TRUE(sameFlows(r.flows(), refPerm.flows));
  bool refEqual = refPerm.flows.size() == ref.flows.size();
  for (const Flow& f : refPerm.flows) {
    refEqual = refEqual && ref.volume(f.src, f.dst) == f.bytes;
  }
  EXPECT_EQ(r == g, refEqual);
}

/// Random calls over \p ranks ranks: repeats of earlier pairs, self-flows,
/// zero volumes, and volumes of mixed magnitude so a sum's bits depend on
/// the order of its terms.
std::vector<FlowCall> randomCalls(RankId ranks, std::size_t count, Rng& rng) {
  std::vector<FlowCall> calls;
  calls.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto src = static_cast<RankId>(rng.nextInt(0, ranks - 1));
    auto dst = static_cast<RankId>(rng.nextInt(0, ranks - 1));
    const double pick = rng.nextDouble();
    if (pick < 0.35 && !calls.empty()) {
      const FlowCall& prev =
          calls[static_cast<std::size_t>(rng.nextBounded(calls.size()))];
      src = std::get<0>(prev);
      dst = std::get<1>(prev);
      if (pick < 0.1) std::swap(src, dst);
    } else if (pick < 0.45) {
      dst = src;
    }
    const Volume bytes =
        rng.nextDouble() < 0.1
            ? 0.0
            : std::ldexp(rng.nextDouble() + 0.5,
                         static_cast<int>(rng.nextInt(-8, 24)));
    calls.emplace_back(src, dst, bytes);
  }
  return calls;
}

TEST(CommGraph, MatchesOrderedReferenceOnRandomGraphs) {
  Rng rng(24);
  for (int trial = 0; trial < 200; ++trial) {
    const auto ranks = static_cast<RankId>(rng.nextInt(1, 3000));
    const auto count = static_cast<std::size_t>(rng.nextInt(0, 4 * ranks));
    expectMatchesReference(ranks, randomCalls(ranks, count, rng), rng);
    if (HasFatalFailure()) return;
  }
  // Past 4,096 distinct flows the index has doubled from its first 16
  // slots at least ten times.
  const std::vector<FlowCall> big = randomCalls(3000, 40000, rng);
  CommGraph g(3000);
  for (const auto& [src, dst, bytes] : big) g.addFlow(src, dst, bytes);
  ASSERT_GT(g.numFlows(), 4096u);
  expectMatchesReference(3000, big, rng);
}

TEST(CommGraph, MatchesOrderedReferenceOnNasGraphs) {
  Rng rng(1024);
  for (const char* name : {"BT", "SP", "CG"}) {
    const Workload w = makeNasByName(name, 1024);
    std::vector<FlowCall> calls;
    for (const auto& phase : w.phases) {
      for (const auto& m : phase) {
        calls.emplace_back(m.src, m.dst, static_cast<Volume>(m.bytes));
      }
    }
    SCOPED_TRACE(name);
    expectMatchesReference(w.ranks, calls, rng);
    ASSERT_TRUE(sameFlows(w.commGraph().flows(), [&] {
      RefGraph ref(w.ranks);
      for (const auto& [src, dst, bytes] : calls) ref.add(src, dst, bytes);
      return ref.flows;
    }()));
  }
}

TEST(Stats, HopBytesUsesMinimalDistances) {
  const Torus t = Torus::torus(Shape{4});
  CommGraph g(4);
  g.addFlow(0, 1, 10);  // distance 1
  g.addFlow(0, 3, 5);   // distance 1 via wraparound
  g.addFlow(0, 2, 2);   // distance 2
  const std::vector<NodeId> ident{0, 1, 2, 3};
  EXPECT_DOUBLE_EQ(hopBytes(g, t, ident), 10 + 5 + 4);
  EXPECT_DOUBLE_EQ(avgWeightedHops(g, t, ident), 19.0 / 17.0);
}

TEST(Stats, ComputeStatsSummary) {
  CommGraph g(4);
  g.addFlow(0, 1, 6);
  g.addFlow(1, 2, 2);
  const GraphStats s = computeStats(g);
  EXPECT_EQ(s.ranks, 4);
  EXPECT_EQ(s.flows, 2u);
  EXPECT_DOUBLE_EQ(s.totalVolume, 8);
  EXPECT_DOUBLE_EQ(s.avgVolumePerFlow, 4);
  EXPECT_EQ(s.maxDegree, 2);
}

TEST(Stats, HopBytesRejectsUnmappedRank) {
  const Torus t = Torus::torus(Shape{4});
  CommGraph g(2);
  g.addFlow(0, 1, 1);
  EXPECT_THROW(hopBytes(g, t, {0}), PreconditionError);
  EXPECT_THROW(hopBytes(g, t, {0, kInvalidNode}), PreconditionError);
}

}  // namespace
}  // namespace rahtm
