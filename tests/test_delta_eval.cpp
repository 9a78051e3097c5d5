/// Property tests for the incremental placement-evaluation engine
/// (routing/delta_eval.hpp): route-table parity with the uniform-minimal
/// enumeration, the entry locator, probe/commit consistency against
/// from-scratch evaluation across randomized move sequences, barred probes
/// against unbarred ones, the relative residue scrub, the shared route
/// table, and thread-count determinism of the searches built on the
/// engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/refine.hpp"
#include "core/subproblem.hpp"
#include "exec/thread_pool.hpp"
#include "graph/comm_graph.hpp"
#include "graph/stats.hpp"
#include "routing/delta_eval.hpp"
#include "routing/oblivious.hpp"
#include "topology/torus.hpp"

namespace rahtm {
namespace {

CommGraph randomGraph(RankId verts, std::size_t flows, Rng& rng) {
  CommGraph g(verts);
  for (std::size_t i = 0; i < flows; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(
        static_cast<std::uint64_t>(verts)));
    const auto b = static_cast<RankId>(rng.nextBounded(
        static_cast<std::uint64_t>(verts)));
    g.addFlow(a, b, static_cast<double>(rng.nextBounded(1000) + 1) * 8.0);
  }
  return g;
}

std::vector<NodeId> randomPlacement(std::size_t verts, std::int64_t nodes,
                                    Rng& rng) {
  std::vector<NodeId> perm(static_cast<std::size_t>(nodes));
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<NodeId>(i);
  }
  rng.shuffle(perm);
  perm.resize(verts);
  return perm;
}

/// A (channel, fraction bit pattern) entry of a route.
using BitEntry = std::pair<ChannelId, std::uint64_t>;

BitEntry bitEntry(ChannelId c, double f) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &f, sizeof bits);
  return {c, bits};
}

/// The entries of \p r expanded: each channel's fraction repeated its
/// multiplicity times, channel by channel.
std::vector<BitEntry> expandedEntries(const RouteTable::Span& r) {
  std::vector<BitEntry> out;
  for (std::size_t k = 0; k < r.size; ++k) {
    out.insert(out.end(), r.multiplicity(k), bitEntry(r.channel(k), r.fracs[k]));
  }
  return out;
}

// Translation is exact and the (fraction, multiplicity) entries lose
// nothing: every route read from the table, each entry expanded to its
// multiplicity, equals forEachUniformMinimalLoad's unit-volume enumeration
// grouped by channel — channels in first-appearance order, each channel's
// fractions in enumeration order, every entry compared bit for bit — on
// torus, mesh, mixed wrap, odd and radix-2 extents, 4-ary ties, an
// extent-1 dimension and a long ring.
TEST(RouteTable, TranslatedRoutesMatchEnumeration) {
  const std::vector<Torus> topos = {
      Torus::torus({3, 2, 4}),
      Torus::mesh({4, 3, 5}),
      Torus::mixed({4, 4, 2}, {1, 0, 1}),
      Torus::torus({3, 5, 4}),
      Torus::torus({2, 2, 2, 2, 2}),
      Torus::torus({4, 4, 2}),
      Torus::mixed({3, 1, 4}, {1, 1, 0}),
      Torus::torus({300}),
  };
  for (const Torus& t : topos) {
    const auto table = RouteTable::buildFull(t);
    const auto n = static_cast<NodeId>(t.numNodes());
    std::int64_t mismatches = 0;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId d = 0; d < n; ++d) {
        // The enumeration, grouped by channel in first-appearance order.
        std::map<ChannelId, std::size_t> groupOf;
        std::vector<std::vector<BitEntry>> groups;
        forEachUniformMinimalLoad(
            t, t.coordOf(s), t.coordOf(d), 1.0, [&](ChannelId c, double f) {
              const auto [it, fresh] = groupOf.emplace(c, groups.size());
              if (fresh) groups.emplace_back();
              groups[it->second].push_back(bitEntry(c, f));
            });
        std::vector<BitEntry> want;
        for (const auto& g : groups) {
          want.insert(want.end(), g.begin(), g.end());
        }
        const RouteTable::Span got = table->find(s, d);
        if (expandedEntries(got) != want || got.size != groups.size()) {
          ++mismatches;
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << t.describe();
  }
}

// One entry per channel: a 2-ary 5-cube's 6,250 reported fractions are
// 810 entries, and a 4-ary tie gives channels of differing multiplicity
// within one route.
TEST(RouteTable, OneEntryPerChannel) {
  EXPECT_EQ(RouteTable::buildFull(Torus::torus({2, 2, 2, 2, 2}))->entryCount(),
            810u);
  const Torus t = Torus::torus({4, 4});
  const auto table = RouteTable::buildFull(t);
  const RouteTable::Span r =
      table->find(t.nodeId(Coord{0, 0}), t.nodeId(Coord{2, 2}));
  std::vector<unsigned> mults;
  for (std::size_t k = 0; k < r.size; ++k) mults.push_back(r.multiplicity(k));
  EXPECT_EQ(*std::min_element(mults.begin(), mults.end()), 1u);
  EXPECT_EQ(*std::max_element(mults.begin(), mults.end()), 2u);
}

// The kernel adds each entry's fraction·bytes multiplicity times, starting
// from the cell's value, exactly like adding the enumeration's entries one
// by one.
TEST(RouteTable, AddRouteRepeatsEnumerationAdditions) {
  const Torus t = Torus::torus({4, 4, 2});
  const auto table = RouteTable::buildFull(t);
  const auto slots = static_cast<std::size_t>(t.numChannelSlots());
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = static_cast<NodeId>(rng.nextBounded(32));
    const auto d = static_cast<NodeId>(rng.nextBounded(32));
    const double bytes = static_cast<double>(rng.nextBounded(999) + 1) * 0.37;
    std::vector<double> want(slots);
    for (double& v : want) v = rng.nextDouble() * 1000.0;
    std::vector<double> got = want;
    forEachUniformMinimalLoad(t, t.coordOf(s), t.coordOf(d), 1.0,
                              [&](ChannelId c, double f) {
                                want[static_cast<std::size_t>(c)] += f * bytes;
                              });
    addRoute(table->find(s, d), bytes, got.data());
    EXPECT_EQ(got, want) << s << " -> " << d;
  }
}

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// A locator adds to its channel's cell exactly what addRoute adds there,
// and says whether the route crosses the channel, for every route and
// every channel of tori, meshes, mixed wrapping, 4-ary ties and an
// extent-1 dimension.
TEST(RouteTable, LocatorAddsWhatAddRouteAddsToItsChannel) {
  const std::vector<Torus> topos = {
      Torus::torus({2, 2, 2, 2, 2}), Torus::torus({4, 4, 2}),
      Torus::mesh({4, 3}),           Torus::mixed({4, 4, 2}, {1, 0, 1}),
      Torus::mixed({3, 1, 4}, {1, 1, 0}),
  };
  for (const Torus& t : topos) {
    const auto table = RouteTable::buildFull(t);
    const auto slots = static_cast<std::size_t>(t.numChannelSlots());
    std::vector<RouteTable::Locator> at;
    for (std::size_t c = 0; c < slots; ++c) {
      at.push_back(table->locate(static_cast<ChannelId>(c)));
    }
    Rng rng(static_cast<std::uint64_t>(t.numNodes()));
    std::vector<double> base(slots);
    for (double& v : base) v = rng.nextDouble() * 1000.0;
    std::int64_t mismatches = 0;
    for (NodeId s = 0; s < t.numNodes(); ++s) {
      for (NodeId d = 0; d < t.numNodes(); ++d) {
        const double bytes =
            static_cast<double>(rng.nextBounded(999) + 1) * -0.37;
        const RouteTable::Span r = table->find(s, d);
        std::vector<double> want = base;
        addRoute(r, bytes, want.data());
        std::vector<char> on(slots, 0);
        for (std::size_t k = 0; k < r.size; ++k) {
          on[static_cast<std::size_t>(r.channel(k))] = 1;
        }
        for (std::size_t c = 0; c < slots; ++c) {
          double cell = base[c];
          const bool crossed = at[c].addRoute(s, d, bytes, cell);
          if (crossed != (on[c] != 0) || bitsOf(cell) != bitsOf(want[c])) {
            ++mismatches;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << t.describe();
  }
}

TEST(DeltaEval, InitialBuildMatchesPlacementLoadsBitExact) {
  const Torus t = Torus::torus({4, 3, 2});
  Rng rng(1);
  const CommGraph g = randomGraph(static_cast<RankId>(t.numNodes()), 60, rng);
  const auto place =
      randomPlacement(static_cast<std::size_t>(g.numRanks()), t.numNodes(), rng);
  DeltaPlacementEval eval(t, g, place);
  const ChannelLoadMap ref = placementLoads(t, g, place);
  ASSERT_EQ(eval.loads().size(), ref.raw().size());
  for (std::size_t c = 0; c < ref.raw().size(); ++c) {
    EXPECT_EQ(eval.loads()[c], ref.raw()[c]) << "channel " << c;
  }
  EXPECT_DOUBLE_EQ(eval.mcl(), placementMcl(t, g, place));
}

// reset() evaluates a whole placement from scratch, as exhaustive search
// does once per permutation: over many placements, an Mcl engine's loads
// match placementLoads() and a HopBytes engine's hop-bytes match hopBytes()
// bit for bit.
TEST(DeltaEval, ResetMatchesPlacementLoadsBitExact) {
  const Torus t = Torus::mesh({2, 2, 2});
  Rng rng(77);
  const auto verts = static_cast<std::size_t>(t.numNodes());
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 3 * verts, rng);
  auto place = randomPlacement(verts, t.numNodes(), rng);
  DeltaPlacementEval loads(t, g, place, MapObjective::Mcl);
  DeltaPlacementEval hops(t, g, place, MapObjective::HopBytes);
  for (int trial = 0; trial < 50; ++trial) {
    rng.shuffle(place);
    loads.reset(place);
    hops.reset(place);
    EXPECT_EQ(loads.placement(), place);
    EXPECT_EQ(hops.placement(), place);
    EXPECT_EQ(loads.loads(), placementLoads(t, g, place).raw())
        << "trial " << trial;
    EXPECT_EQ(loads.mcl(), placementMcl(t, g, place));
    EXPECT_EQ(hops.hopBytes(), hopBytes(g, t, place));
  }
}

// A flow whose split fractions underflow to zero (a denormal volume on a
// diagonal, split 50/50) adds nothing: MCL and sum of squares are exactly
// those of the graph without it.
TEST(DeltaEval, DenormalFlowAddsNoLoad) {
  const Torus t = Torus::torus({4, 4});
  std::vector<NodeId> place(16);
  for (std::size_t i = 0; i < place.size(); ++i) {
    place[i] = static_cast<NodeId>(i);
  }
  CommGraph with(16);
  with.addFlow(0, 5, 5e-324);  // 0.5 * 5e-324 underflows to 0.0
  with.addFlow(0, 1, 8);       // shares the 0->1 channel with one path
  CommGraph without(16);
  without.addFlow(0, 1, 8);
  const DeltaPlacementEval a(t, with, place);
  const DeltaPlacementEval b(t, without, place);
  EXPECT_EQ(a.mcl(), b.mcl());
  EXPECT_EQ(a.sumSquares(), b.sumSquares());
}

// The central property: across randomized committed swap sequences, the
// incrementally maintained statistics track a from-scratch evaluation, a
// probe's summary is adopted bit-for-bit by its commit, and rebuild()
// resynchronizes to placementLoads() exactly.
TEST(DeltaEval, ProbeCommitTracksScratchAcrossSwapSequences) {
  const std::vector<Torus> topos = {
      Torus::torus({4, 4, 2}),           // 3D with a double-wide dimension
      Torus::torus({2, 2, 2, 3, 2}),     // 5D, several 2-ary dims
      Torus::mesh({3, 3, 3}),
  };
  for (const Torus& t : topos) {
    Rng rng(static_cast<std::uint64_t>(t.numNodes()));
    const auto verts = static_cast<std::size_t>(t.numNodes());
    const CommGraph g = randomGraph(static_cast<RankId>(verts), 4 * verts, rng);
    auto place = randomPlacement(verts, t.numNodes(), rng);
    DeltaPlacementEval eval(t, g, place);
    for (int step = 0; step < 120; ++step) {
      const auto a = static_cast<RankId>(rng.nextBounded(verts));
      auto b = static_cast<RankId>(rng.nextBounded(verts));
      while (b == a) b = static_cast<RankId>(rng.nextBounded(verts));
      const DeltaPlacementEval::Summary probed = eval.probeSwap(a, b);
      eval.commit();
      // Commit adopts the probe verbatim: nothing but rebuild() recomputes
      // the running statistics, so both match bit for bit.
      EXPECT_EQ(eval.mcl(), probed.mcl);
      EXPECT_EQ(eval.sumSquares(), probed.sumSquares);
      std::swap(place[static_cast<std::size_t>(a)],
                place[static_cast<std::size_t>(b)]);
      ASSERT_EQ(eval.placement(), place);
      const double ref = placementMcl(t, g, place);
      EXPECT_NEAR(eval.mcl(), ref, 1e-9 * std::max(1.0, ref))
          << t.describe() << " step " << step;
    }
    // A dense rebuild lands exactly on the from-scratch loads.
    eval.rebuild();
    const ChannelLoadMap ref = placementLoads(t, g, place);
    for (std::size_t c = 0; c < ref.raw().size(); ++c) {
      EXPECT_EQ(eval.loads()[c], ref.raw()[c]) << t.describe() << " ch " << c;
    }
    EXPECT_DOUBLE_EQ(eval.mcl(), placementMcl(t, g, place));
  }
}

/// Max over the committed loads, floored at zero like the engine's MCL.
double maxLoad(const std::vector<double>& loads) {
  double mx = 0;
  for (const double v : loads) mx = std::max(mx, v);
  return mx;
}

/// Drives \p eval through \p steps random probes, an even mix of swaps and
/// moves to empty nodes, committing about half of them. Every probe's MCL
/// must match a from-scratch placementMcl of its candidate placement, and
/// every commit must adopt its probe bit for bit, with an MCL equal to the
/// max of the committed loads.
void checkRandomProbes(const Torus& t, const CommGraph& g,
                       std::vector<NodeId> place, int steps, Rng& rng,
                       DeltaPlacementEval& eval) {
  const auto verts = place.size();
  std::vector<NodeId> empty;
  std::vector<char> used(static_cast<std::size_t>(t.numNodes()), 0);
  for (const NodeId n : place) used[static_cast<std::size_t>(n)] = 1;
  for (NodeId n = 0; n < t.numNodes(); ++n) {
    if (!used[static_cast<std::size_t>(n)]) empty.push_back(n);
  }
  for (int step = 0; step < steps; ++step) {
    const auto a = static_cast<RankId>(rng.nextBounded(verts));
    auto cand = place;
    DeltaPlacementEval::Summary probed;
    std::size_t hole = 0;
    const bool move = !empty.empty() && rng.nextBounded(2) == 0;
    if (move) {
      hole = static_cast<std::size_t>(rng.nextBounded(empty.size()));
      cand[static_cast<std::size_t>(a)] = empty[hole];
      probed = eval.probeMove(a, empty[hole]);
    } else {
      auto b = static_cast<RankId>(rng.nextBounded(verts));
      while (b == a) b = static_cast<RankId>(rng.nextBounded(verts));
      std::swap(cand[static_cast<std::size_t>(a)],
                cand[static_cast<std::size_t>(b)]);
      probed = eval.probeSwap(a, b);
    }
    const double ref = placementMcl(t, g, cand);
    ASSERT_NEAR(probed.mcl, ref, 1e-9 * std::max(1.0, ref))
        << t.describe() << " step " << step;
    if (rng.nextBounded(2) == 0) continue;  // rejected
    eval.commit();
    if (move) empty[hole] = place[static_cast<std::size_t>(a)];
    place = cand;
    ASSERT_EQ(eval.placement(), place);
    EXPECT_EQ(eval.mcl(), probed.mcl);
    EXPECT_EQ(eval.sumSquares(), probed.sumSquares);
    EXPECT_EQ(eval.mcl(), maxLoad(eval.loads())) << "step " << step;
  }
}

// A probe's MCL is the max of its touched channels' new loads and of the
// untouched loads. The untouched max is the current MCL while the channel
// holding it is untouched, else a masked sweep. On a 2-ary 5-cube a probe
// touches most channels, so most probes sweep.
TEST(DeltaEval, ExactMaxOnTwoAryCubeMostlySweeps) {
  const Torus t = Torus::torus({2, 2, 2, 2, 2});
  Rng rng(37);
  const CommGraph g = randomGraph(28, 6 * 28, rng);
  const auto place = randomPlacement(28, t.numNodes(), rng);
  DeltaPlacementEval eval(t, g, place);
  checkRandomProbes(t, g, place, 400, rng, eval);
  EXPECT_EQ(eval.probes(), 400u);
  EXPECT_GT(eval.maskedSweeps(), eval.probes() / 2);
  EXPECT_LT(eval.maskedSweeps(), eval.probes());
}

// On a wider torus one heavy pair holds the MCL and a random probe rarely
// touches its channels, so most probes take the O(1) path.
TEST(DeltaEval, ExactMaxOnSkewedGraphMostlyFastPath) {
  const Torus t = Torus::torus({4, 4, 4, 2});
  Rng rng(41);
  const auto verts = static_cast<std::size_t>(t.numNodes()) - 8;
  CommGraph g = randomGraph(static_cast<RankId>(verts), verts, rng);
  g.addExchange(0, 1, 1e6);
  const auto place = randomPlacement(verts, t.numNodes(), rng);
  DeltaPlacementEval eval(t, g, place);
  checkRandomProbes(t, g, place, 400, rng, eval);
  EXPECT_GT(eval.maskedSweeps(), 0u);
  EXPECT_LT(eval.maskedSweeps(), eval.probes() / 2);
}

// Two channels share the MCL. A probe that lowers the remembered one must
// sweep and report the other channel's load; once committed, the other
// channel is remembered and a probe away from it is answered in O(1).
TEST(DeltaEval, ExactMaxReportsTiedChannelWhenRememberedOneDrops) {
  const Torus t = Torus::mesh({3, 3});
  CommGraph g(4);
  g.addFlow(0, 1, 10);  // (0,0) -> (1,0): one channel
  g.addFlow(2, 3, 10);  // (0,2) -> (1,2): one channel
  const std::vector<NodeId> place = {t.nodeId(Coord{0, 0}),
                                     t.nodeId(Coord{1, 0}),
                                     t.nodeId(Coord{0, 2}),
                                     t.nodeId(Coord{1, 2})};
  DeltaPlacementEval eval(t, g, place);
  const ChannelId first = t.channelId(place[0], 0, Dir::Plus);
  const ChannelId second = t.channelId(place[2], 0, Dir::Plus);
  ASSERT_EQ(eval.loads()[static_cast<std::size_t>(first)], 10.0);
  ASSERT_EQ(eval.loads()[static_cast<std::size_t>(second)], 10.0);
  ASSERT_EQ(eval.mcl(), 10.0);
  // The rebuild remembers the lowest tied channel, `first`. Moving vertex 1
  // to the diagonal node (1,1) splits flow 0 -> 1 over two paths, so
  // `first` drops to 5 and every channel the probe touches carries 5.
  const DeltaPlacementEval::Summary s =
      eval.probeMove(1, t.nodeId(Coord{1, 1}));
  EXPECT_EQ(eval.maskedSweeps(), 1u);
  EXPECT_EQ(s.mcl, 10.0);
  eval.commit();
  EXPECT_EQ(eval.loads()[static_cast<std::size_t>(first)], 5.0);
  EXPECT_EQ(eval.mcl(), eval.loads()[static_cast<std::size_t>(second)]);
  // `second` now holds the MCL; moving vertex 0 leaves it untouched.
  const DeltaPlacementEval::Summary back =
      eval.probeMove(0, t.nodeId(Coord{2, 0}));
  EXPECT_EQ(eval.maskedSweeps(), 1u);
  EXPECT_EQ(back.mcl, 10.0);
}

/// Folds the bit pattern of \p v into \p h.
std::uint64_t foldBits(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  h = (h ^ bits) * 0x100000001b3ull;
  return h ^ (h >> 29);
}

/// Hash of every probe's MCL and sum of squares and of the final loads over
/// a seeded walk of swaps and moves, about half of them committed.
std::uint64_t walkHash(const Torus& t, std::size_t verts, int steps,
                       std::uint64_t seed) {
  Rng rng(seed);
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 4 * verts, rng);
  auto place = randomPlacement(verts, t.numNodes(), rng);
  std::vector<NodeId> empty;
  for (NodeId n = 0; n < t.numNodes(); ++n) {
    if (std::find(place.begin(), place.end(), n) == place.end()) {
      empty.push_back(n);
    }
  }
  DeltaPlacementEval eval(t, g, place);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int step = 0; step < steps; ++step) {
    const auto a = static_cast<RankId>(rng.nextBounded(verts));
    const bool move = rng.nextBounded(2) == 0;
    const auto hole = static_cast<std::size_t>(rng.nextBounded(empty.size()));
    DeltaPlacementEval::Summary s;
    if (move) {
      s = eval.probeMove(a, empty[hole]);
    } else {
      auto b = static_cast<RankId>(rng.nextBounded(verts));
      while (b == a) b = static_cast<RankId>(rng.nextBounded(verts));
      s = eval.probeSwap(a, b);
    }
    h = foldBits(foldBits(h, s.mcl), s.sumSquares);
    if (rng.nextBounded(2) == 0) continue;  // rejected
    const NodeId vacated = eval.placement()[static_cast<std::size_t>(a)];
    eval.commit();
    if (move) empty[hole] = vacated;
  }
  for (const double v : eval.loads()) h = foldBits(h, v);
  return h;
}

// Bit-exactness pin: the probe statistics and final loads of fixed walks,
// recorded before routes were stored as (fraction, multiplicity) entries
// and accumulated in lanes. Any change to a single addition's order or
// operands changes a hash. The tori cover uniform multiplicities (2-ary)
// and mixed ones (4-ary ties); the mesh has multiplicity 1 throughout.
TEST(DeltaEval, PinnedWalkHashes) {
  struct Case {
    Torus topo;
    std::size_t verts;
    std::uint64_t want;
  };
  const std::vector<Case> cases = {
      {Torus::torus({2, 2, 2, 2, 2}), 28, 0x28cba41361d55256ull},
      {Torus::torus({4, 4, 2}), 26, 0xf03a8d7168469d44ull},
      {Torus::mesh({3, 3, 3}), 22, 0xa0eb30baad97745eull},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(walkHash(c.topo, c.verts, 600, 0x5eed + c.verts), c.want)
        << c.topo.describe();
  }
}

/// Drives a seeded walk of swaps and moves, probing each candidate twice:
/// without a bar, then with one. Bars fall below, at and above the
/// candidate's MCL; witnesses are the candidate's max channel, a random
/// channel or none. Returns the number of cuts.
std::uint64_t checkBarredWalk(const Torus& t, std::size_t verts, int steps,
                              std::uint64_t seed) {
  Rng rng(seed);
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 4 * verts, rng);
  auto place = randomPlacement(verts, t.numNodes(), rng);
  std::vector<NodeId> empty;
  for (NodeId n = 0; n < t.numNodes(); ++n) {
    if (std::find(place.begin(), place.end(), n) == place.end()) {
      empty.push_back(n);
    }
  }
  DeltaPlacementEval eval(t, g, place);
  const auto slots = static_cast<std::uint64_t>(t.numChannelSlots());
  for (int step = 0; step < steps; ++step) {
    const auto a = static_cast<RankId>(rng.nextBounded(verts));
    const bool move = !empty.empty() && rng.nextBounded(2) == 0;
    const std::size_t hole =
        move ? static_cast<std::size_t>(rng.nextBounded(empty.size())) : 0;
    auto b = static_cast<RankId>(rng.nextBounded(verts));
    while (b == a) b = static_cast<RankId>(rng.nextBounded(verts));
    const auto probe = [&](double bar, ChannelId witness) {
      return move ? eval.probeMove(a, empty[hole], bar, witness)
                  : eval.probeSwap(a, b, bar, witness);
    };
    const DeltaPlacementEval::Summary full = probe(DeltaPlacementEval::kNoBar,
                                                   kInvalidChannel);
    const ChannelId maxAt = eval.probeMaxChannel();
    double bar = full.mcl;  // a tie never cuts
    switch (rng.nextBounded(4)) {
      case 0: bar = std::nextafter(full.mcl, 0.0); break;
      case 1: bar = full.mcl * (0.5 + rng.nextDouble()); break;
      case 2: bar = eval.mcl() * rng.nextDouble(); break;
      default: break;
    }
    ChannelId witness = kInvalidChannel;
    switch (rng.nextBounded(3)) {
      case 0: witness = maxAt; break;
      case 1: witness = static_cast<ChannelId>(rng.nextBounded(slots)); break;
      default: break;
    }
    const std::vector<double> loadsBefore = eval.loads();
    const double mclBefore = eval.mcl();
    const double sqBefore = eval.sumSquares();
    const std::uint64_t cutsBefore = eval.cuts();
    const DeltaPlacementEval::Summary barred = probe(bar, witness);
    if (eval.cuts() != cutsBefore) {
      // Cut: only when the exact candidate MCL is above the bar, with
      // nothing changed and nothing to commit.
      EXPECT_GT(full.mcl, bar) << t.describe() << " step " << step;
      EXPECT_EQ(barred.mcl, DeltaPlacementEval::kNoBar);
      EXPECT_FALSE(eval.hasPending());
      EXPECT_THROW(eval.commit(), PreconditionError);
      EXPECT_EQ(eval.loads(), loadsBefore);
      EXPECT_EQ(bitsOf(eval.mcl()), bitsOf(mclBefore));
      EXPECT_EQ(bitsOf(eval.sumSquares()), bitsOf(sqBefore));
      continue;
    }
    EXPECT_EQ(bitsOf(barred.mcl), bitsOf(full.mcl))
        << t.describe() << " step " << step;
    EXPECT_EQ(bitsOf(barred.sumSquares), bitsOf(full.sumSquares));
    EXPECT_EQ(bitsOf(barred.hopBytes), bitsOf(full.hopBytes));
    EXPECT_TRUE(eval.hasPending());
    // A candidate above the current MCL raises its max channel, so that
    // channel is on the probe's routes and, as the witness, must cut.
    EXPECT_FALSE(witness == maxAt && bar < full.mcl && full.mcl > mclBefore)
        << t.describe() << " step " << step << ": the witness did not cut";
    if (rng.nextBounded(2) == 0) continue;  // rejected
    const NodeId vacated = eval.placement()[static_cast<std::size_t>(a)];
    eval.commit();
    EXPECT_EQ(bitsOf(eval.mcl()), bitsOf(full.mcl));
    if (move) empty[hole] = vacated;
  }
  return eval.cuts();
}

// A barred probe returns the unbarred statistics bit for bit, or +inf only
// when the exact candidate MCL is above the bar. A cut leaves the loads
// and statistics unchanged, and commit() after it throws.
TEST(DeltaEval, BarredProbesMatchUnbarredOrCut) {
  EXPECT_GT(checkBarredWalk(Torus::torus({2, 2, 2, 2, 2}), 28, 600, 3), 50u);
  EXPECT_GT(checkBarredWalk(Torus::torus({4, 4, 2}), 26, 600, 5), 50u);
  EXPECT_GT(checkBarredWalk(Torus::mesh({3, 3, 3}), 22, 600, 7), 50u);
}

// channelVisits() counts a probe's route channels: each channel once per
// route that crosses it, the old route and the new one alike.
TEST(DeltaEval, ChannelVisitsCountRouteChannels) {
  const Torus t = Torus::mesh({3, 3});
  CommGraph g(2);
  g.addFlow(0, 1, 10);
  const std::vector<NodeId> place = {t.nodeId(Coord{0, 0}),
                                     t.nodeId(Coord{1, 0})};
  DeltaPlacementEval eval(t, g, place);
  EXPECT_EQ(eval.channelVisits(), 0u);
  // One hop (1 channel) becomes a diagonal (4 channels over two paths).
  eval.probeMove(1, t.nodeId(Coord{1, 1}));
  EXPECT_EQ(eval.channelVisits(), 5u);
  eval.commit();
  // The diagonal (4 channels) becomes two hops in a line (2 channels).
  eval.probeMove(1, t.nodeId(Coord{2, 0}));
  EXPECT_EQ(eval.channelVisits(), 11u);
}

TEST(DeltaEval, RejectedProbesDoNotMutate) {
  const Torus t = Torus::torus({3, 3, 2});
  Rng rng(7);
  const auto verts = static_cast<std::size_t>(t.numNodes());
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 50, rng);
  const auto place = randomPlacement(verts, t.numNodes(), rng);
  DeltaPlacementEval eval(t, g, place);
  const std::vector<double> loadsBefore = eval.loads();
  const double mclBefore = eval.mcl();
  const double sqBefore = eval.sumSquares();
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(verts));
    auto b = static_cast<RankId>(rng.nextBounded(verts));
    while (b == a) b = static_cast<RankId>(rng.nextBounded(verts));
    eval.probeSwap(a, b);  // never committed
  }
  EXPECT_EQ(eval.loads(), loadsBefore);
  EXPECT_EQ(eval.mcl(), mclBefore);
  EXPECT_EQ(eval.sumSquares(), sqBefore);
  EXPECT_EQ(eval.placement(), place);
  // A probe after many rejections is still consistent with from-scratch.
  const DeltaPlacementEval::Summary s = eval.probeSwap(0, 1);
  auto swapped = place;
  std::swap(swapped[0], swapped[1]);
  const double ref = placementMcl(t, g, swapped);
  EXPECT_NEAR(s.mcl, ref, 1e-9 * std::max(1.0, ref));
}

TEST(DeltaEval, ProbeMoveOnPartiallyFilledCube) {
  const Torus t = Torus::torus({2, 2, 2});
  Rng rng(11);
  const std::size_t verts = 5;  // 3 empty nodes
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 12, rng);
  auto place = randomPlacement(verts, t.numNodes(), rng);
  std::vector<char> occupied(static_cast<std::size_t>(t.numNodes()), 0);
  for (const NodeId n : place) occupied[static_cast<std::size_t>(n)] = 1;
  DeltaPlacementEval eval(t, g, place);
  for (int step = 0; step < 80; ++step) {
    const auto a = static_cast<RankId>(rng.nextBounded(verts));
    NodeId target = static_cast<NodeId>(rng.nextBounded(
        static_cast<std::uint64_t>(t.numNodes())));
    while (occupied[static_cast<std::size_t>(target)]) {
      target = static_cast<NodeId>(
          rng.nextBounded(static_cast<std::uint64_t>(t.numNodes())));
    }
    const DeltaPlacementEval::Summary probed = eval.probeMove(a, target);
    eval.commit();
    occupied[static_cast<std::size_t>(place[static_cast<std::size_t>(a)])] = 0;
    occupied[static_cast<std::size_t>(target)] = 1;
    place[static_cast<std::size_t>(a)] = target;
    ASSERT_EQ(eval.placement(), place);
    EXPECT_EQ(eval.mcl(), probed.mcl);
    const double ref = placementMcl(t, g, place);
    EXPECT_NEAR(eval.mcl(), ref, 1e-9 * std::max(1.0, ref)) << "step " << step;
  }
}

TEST(DeltaEval, HopBytesTracking) {
  const Torus t = Torus::torus({4, 2, 2});
  Rng rng(13);
  const auto verts = static_cast<std::size_t>(t.numNodes());
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 40, rng);
  auto place = randomPlacement(verts, t.numNodes(), rng);
  DeltaPlacementEval eval(t, g, place, MapObjective::HopBytes);
  EXPECT_DOUBLE_EQ(eval.hopBytes(), hopBytes(g, t, place));
  for (int step = 0; step < 100; ++step) {
    const auto a = static_cast<RankId>(rng.nextBounded(verts));
    auto b = static_cast<RankId>(rng.nextBounded(verts));
    while (b == a) b = static_cast<RankId>(rng.nextBounded(verts));
    const DeltaPlacementEval::Summary probed = eval.probeSwap(a, b);
    eval.commit();
    std::swap(place[static_cast<std::size_t>(a)],
              place[static_cast<std::size_t>(b)]);
    EXPECT_EQ(eval.hopBytes(), probed.hopBytes);
    const double ref = hopBytes(g, t, place);
    EXPECT_NEAR(eval.hopBytes(), ref, 1e-9 * std::max(1.0, ref));
  }
}

// The residue scrub is relative to each channel's peak applied load: after
// a heavy flow (volume 1e18, where one ulp is 128) moves away, the vacated
// channels must read exactly 0 — an absolute threshold like the old -1e-7
// misses residue that large — while an untouched light channel keeps its
// legitimately tiny load.
TEST(DeltaEval, ResidueScrubIsRelativeToPeakLoad) {
  const Torus t = Torus::torus({4, 4});
  CommGraph g(6);
  g.addExchange(0, 1, 1e18);  // heavy pair
  g.addExchange(2, 3, 1.0);   // light pair, adjacent
  // The heavy endpoints and the idle vertices 4/5 orbit nodes {0,1,5,6}
  // (coordinates with x in {0,1}); every minimal route between those nodes
  // — including the dim-1 tie paths through y=3 — stays at x in {0,1}, so
  // the light pair's channels at x=3 (nodes 14<->15) are never re-routed.
  std::vector<NodeId> place = {0, 1, 14, 15, 5, 6};
  DeltaPlacementEval eval(t, g, place);
  Rng rng(17);
  for (int step = 0; step < 60; ++step) {
    // Shuffle the heavy endpoints around via swaps with the idle vertices
    // 4 and 5, repeatedly vacating channels that carried ~1e18.
    const RankId heavy = step % 2 == 0 ? 0 : 1;
    const RankId idle = step % 4 < 2 ? 4 : 5;
    eval.probeSwap(heavy, idle);
    eval.commit();
  }
  eval.probeSwap(4, 5);
  eval.commit();
  const ChannelLoadMap ref = placementLoads(t, g, eval.placement());
  for (std::size_t c = 0; c < ref.raw().size(); ++c) {
    if (ref.raw()[c] == 0.0) {
      EXPECT_EQ(eval.loads()[c], 0.0) << "residue on channel " << c;
    } else {
      EXPECT_NEAR(eval.loads()[c], ref.raw()[c],
                  1e-9 * std::max(1.0, ref.raw()[c]));
    }
  }
}

TEST(DeltaEval, SharedRouteTableMatchesOwned) {
  const Torus t = Torus::torus({3, 2, 2});
  Rng rng(19);
  const auto verts = static_cast<std::size_t>(t.numNodes());
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 30, rng);
  const auto place = randomPlacement(verts, t.numNodes(), rng);
  const auto shared = RouteTable::buildFull(t);
  DeltaPlacementEval own(t, g, place);
  DeltaPlacementEval sharedEval(t, g, place, {}, shared);
  EXPECT_EQ(own.loads(), sharedEval.loads());
  Rng moves(23);
  for (int step = 0; step < 60; ++step) {
    const auto a = static_cast<RankId>(moves.nextBounded(verts));
    auto b = static_cast<RankId>(moves.nextBounded(verts));
    while (b == a) b = static_cast<RankId>(moves.nextBounded(verts));
    const auto sa = own.probeSwap(a, b);
    const auto sb = sharedEval.probeSwap(a, b);
    EXPECT_EQ(sa.mcl, sb.mcl);
    EXPECT_EQ(sa.sumSquares, sb.sumSquares);
    own.commit();
    sharedEval.commit();
  }
  EXPECT_EQ(own.loads(), sharedEval.loads());
}

// Pruned (don't-look-bit) refinement still finds the canonical improving
// swap of the hop-bytes line case and reports exact final objectives.
TEST(DeltaEval, PrunedRefineFindsNeighborSwap) {
  const Torus t = Torus::mesh({4});
  CommGraph g(4);
  g.addExchange(0, 3, 100.0);
  std::vector<NodeId> place = {0, 1, 2, 3};
  RefineConfig cfg;
  cfg.objective = MapObjective::HopBytes;
  cfg.candidates = RefineCandidates::Pruned;
  const RefineResult r = refinePlacement(t, g, place, cfg);
  EXPECT_GT(r.swapsApplied, 0);
  EXPECT_EQ(t.distance(place[0], place[3]), 1);
  EXPECT_DOUBLE_EQ(r.objectiveAfter, hopBytes(g, t, place));
}

TEST(DeltaEval, PrunedRefineMatchesAllPairsQuality) {
  const Torus t = Torus::torus({4, 2, 2});
  Rng rng(29);
  const auto verts = static_cast<std::size_t>(t.numNodes());
  const CommGraph g = randomGraph(static_cast<RankId>(verts), 48, rng);
  const auto start = randomPlacement(verts, t.numNodes(), rng);

  auto allPairs = start;
  RefineConfig cfgAll;
  cfgAll.candidates = RefineCandidates::AllPairs;
  const RefineResult rAll = refinePlacement(t, g, allPairs, cfgAll);

  auto prunedP = start;
  RefineConfig cfgPruned;
  cfgPruned.candidates = RefineCandidates::Pruned;
  const RefineResult rPruned = refinePlacement(t, g, prunedP, cfgPruned);

  // Both report exact objectives of their final placements...
  EXPECT_DOUBLE_EQ(rAll.objectiveAfter, placementMcl(t, g, allPairs));
  EXPECT_DOUBLE_EQ(rPruned.objectiveAfter, placementMcl(t, g, prunedP));
  // ...both improve, and pruning scans far fewer candidates without giving
  // up much quality.
  EXPECT_LE(rAll.objectiveAfter, rAll.objectiveBefore);
  EXPECT_LE(rPruned.objectiveAfter, rPruned.objectiveBefore);
  EXPECT_LT(rPruned.objectiveAfter, rPruned.objectiveBefore);
  EXPECT_LE(rPruned.objectiveAfter, rAll.objectiveAfter * 1.5);
}

// Satellite: determinism across thread counts. The annealing search built
// on the engine must return bit-identical results for 1, 2 and 8 threads.
TEST(DeltaEval, AnnealDeterministicAcrossThreadCounts) {
  const Torus cube = Torus::torus({2, 2, 2, 2});
  Rng rng(31);
  const CommGraph g =
      randomGraph(static_cast<RankId>(cube.numNodes()), 64, rng);
  SubproblemConfig cfg;
  cfg.annealRestarts = 8;
  cfg.annealIters = 3000;
  const SubproblemSolution serial = annealSearch(g, cube, cfg, nullptr);
  for (const int threads : {1, 2, 8}) {
    exec::ThreadPool pool(threads);
    const SubproblemSolution parallel = annealSearch(g, cube, cfg, &pool);
    EXPECT_EQ(serial.vertexOf, parallel.vertexOf) << threads << " threads";
    EXPECT_EQ(serial.objective, parallel.objective) << threads << " threads";
    EXPECT_EQ(serial.iterations, parallel.iterations);
    EXPECT_EQ(serial.probes, parallel.probes);
    EXPECT_EQ(serial.commits, parallel.commits);
    EXPECT_EQ(serial.channelVisits, parallel.channelVisits);
  }
}

}  // namespace
}  // namespace rahtm
