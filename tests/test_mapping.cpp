// Tests for the Mapping type, mapfile I/O and the baseline mappers:
// dimension permutations (ABCDET family), Hilbert curve and Rubik-style
// hierarchical tiling.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/error.hpp"
#include "mapping/hilbert.hpp"
#include "mapping/mapfile.hpp"
#include "mapping/permutation.hpp"
#include "mapping/rubik.hpp"
#include "topology/presets.hpp"

namespace rahtm {
namespace {

CommGraph emptyGraph(RankId ranks) { return CommGraph(ranks); }

/// Every mapper must produce a complete, concentration-respecting mapping.
void expectValid(const Mapping& m, const Torus& topo, int c) {
  EXPECT_TRUE(m.complete());
  const std::string err = m.validate(topo, c);
  EXPECT_TRUE(err.empty()) << err;
}

TEST(MappingType, ValidateCatchesViolations) {
  const Torus t = Torus::torus(Shape{2, 2});
  Mapping m(8);
  for (RankId r = 0; r < 8; ++r) m.assign(r, static_cast<NodeId>(r / 2), r % 2);
  EXPECT_TRUE(m.validate(t, 2).empty());

  Mapping overfull(8);
  for (RankId r = 0; r < 8; ++r) overfull.assign(r, 0, r);
  EXPECT_FALSE(overfull.validate(t, 2).empty());  // slots out of range

  Mapping dupSlot(2);
  dupSlot.assign(0, 1, 0);
  dupSlot.assign(1, 1, 0);
  EXPECT_FALSE(dupSlot.validate(t, 2).empty());

  Mapping incomplete(2);
  incomplete.assign(0, 0, 0);
  EXPECT_FALSE(incomplete.complete());
  EXPECT_FALSE(incomplete.validate(t, 2).empty());
}

TEST(MappingType, RanksOnNodeOrderedBySlot) {
  Mapping m(4);
  m.assign(0, 1, 1);
  m.assign(1, 1, 0);
  m.assign(2, 0, 0);
  m.assign(3, 1, 2);
  EXPECT_EQ(m.ranksOnNode(1), (std::vector<RankId>{1, 0, 3}));
  EXPECT_EQ(m.ranksOnNode(0), (std::vector<RankId>{2}));
  EXPECT_TRUE(m.ranksOnNode(2).empty());
}

TEST(PermutationMapperTest, DefaultEqualsAbcdet) {
  const Torus t = bgqPartition128();  // 4x4x4x2 => spec letters ABCD + T
  const int c = 4;
  const CommGraph g = emptyGraph(static_cast<RankId>(t.numNodes() * c));
  DefaultMapper def;
  PermutationMapper abcdt("ABCDT");
  const Mapping m1 = def.map(g, t, c);
  const Mapping m2 = abcdt.map(g, t, c);
  for (RankId r = 0; r < g.numRanks(); ++r) {
    EXPECT_EQ(m1.nodeOf(r), m2.nodeOf(r)) << r;
    EXPECT_EQ(m1.slotOf(r), m2.slotOf(r)) << r;
  }
}

TEST(PermutationMapperTest, RightmostLetterVariesFastest) {
  const Torus t = Torus::torus(Shape{2, 2});
  PermutationMapper tab("TAB");  // T slowest: consecutive ranks walk B
  const CommGraph g = emptyGraph(8);
  const Mapping m = tab.map(g, t, 2);
  // rank 0 -> (0,0) slot 0; rank 1 -> (0,1) slot 0; rank 2 -> (1,0) slot 0.
  EXPECT_EQ(m.nodeOf(0), t.nodeId(Coord{0, 0}));
  EXPECT_EQ(m.slotOf(0), 0);
  EXPECT_EQ(m.nodeOf(1), t.nodeId(Coord{0, 1}));
  EXPECT_EQ(m.nodeOf(2), t.nodeId(Coord{1, 0}));
  EXPECT_EQ(m.nodeOf(4), t.nodeId(Coord{0, 0}));  // wraps into slot 1
  EXPECT_EQ(m.slotOf(4), 1);
}

TEST(PermutationMapperTest, AllSpecsProduceValidMappings) {
  const Torus t = bgqPartition128();
  const int c = 2;
  const CommGraph g = emptyGraph(static_cast<RankId>(t.numNodes() * c));
  for (const std::string spec : {"ABCDT", "TABCD", "ACBDT", "DCBAT", "TDCBA"}) {
    PermutationMapper pm(spec);
    expectValid(pm.map(g, t, c), t, c);
  }
}

TEST(PermutationMapperTest, RejectsBadSpecs) {
  const Torus t = Torus::torus(Shape{2, 2});
  const CommGraph g = emptyGraph(8);
  EXPECT_THROW(PermutationMapper("AB").map(g, t, 2), ParseError);    // no T
  EXPECT_THROW(PermutationMapper("AAT").map(g, t, 2), ParseError);   // dup
  EXPECT_THROW(PermutationMapper("AXT").map(g, t, 2), ParseError);   // bad dim
  EXPECT_THROW(PermutationMapper("ABCT").map(g, t, 2), ParseError);  // too long
}

TEST(PermutationMapperTest, RankCountMustMatch) {
  const Torus t = Torus::torus(Shape{2, 2});
  PermutationMapper pm("ABT");
  const CommGraph g = emptyGraph(7);
  EXPECT_THROW(pm.map(g, t, 2), PreconditionError);
}

TEST(RandomMapperTest, ValidAndSeedDeterministic) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const CommGraph g = emptyGraph(16);
  RandomMapper a(7), b(7), c(8);
  const Mapping ma = a.map(g, t, 2);
  const Mapping mb = b.map(g, t, 2);
  const Mapping mc = c.map(g, t, 2);
  expectValid(ma, t, 2);
  bool sameAsDifferentSeed = true;
  for (RankId r = 0; r < 16; ++r) {
    EXPECT_EQ(ma.nodeOf(r), mb.nodeOf(r));
    sameAsDifferentSeed &= (ma.nodeOf(r) == mc.nodeOf(r));
  }
  EXPECT_FALSE(sameAsDifferentSeed);
}

// ---- Hilbert ---------------------------------------------------------------

TEST(HilbertCurve, VisitsEveryCellOnce) {
  for (const auto& [bits, dims] : std::vector<std::pair<int, int>>{
           {2, 2}, {1, 4}, {3, 2}, {2, 3}}) {
    const std::uint64_t total = std::uint64_t{1}
                                << static_cast<unsigned>(bits * dims);
    std::set<std::vector<std::uint32_t>> seen;
    for (std::uint64_t i = 0; i < total; ++i) {
      seen.insert(hilbertIndexToCoords(i, bits, dims));
    }
    EXPECT_EQ(seen.size(), total) << bits << "b " << dims << "d";
  }
}

TEST(HilbertCurve, ConsecutiveIndicesAreNeighbors) {
  const int bits = 2, dims = 4;  // the paper's ABCD case: 4x4x4x4
  const std::uint64_t total = std::uint64_t{1}
                              << static_cast<unsigned>(bits * dims);
  auto prev = hilbertIndexToCoords(0, bits, dims);
  for (std::uint64_t i = 1; i < total; ++i) {
    const auto cur = hilbertIndexToCoords(i, bits, dims);
    int diff = 0;
    for (int d = 0; d < dims; ++d) {
      diff += std::abs(static_cast<int>(cur[static_cast<std::size_t>(d)]) -
                       static_cast<int>(prev[static_cast<std::size_t>(d)]));
    }
    EXPECT_EQ(diff, 1) << "step " << i;
    prev = cur;
  }
}

TEST(HilbertCurve, IndexCoordsRoundTrip) {
  const int bits = 3, dims = 3;
  for (std::uint64_t i = 0; i < 512; ++i) {
    EXPECT_EQ(hilbertCoordsToIndex(hilbertIndexToCoords(i, bits, dims), bits),
              i);
  }
}

TEST(HilbertMapperTest, ValidOnBgqShape) {
  const Torus t = bgqPartition512();  // Hilbert over ABCD, dimension order E,T
  const int c = 2;
  const CommGraph g = emptyGraph(static_cast<RankId>(t.numNodes() * c));
  HilbertMapper hm;
  const Mapping m = hm.map(g, t, c);
  expectValid(m, t, c);
  // Consecutive node-groups follow the curve: ranks 2c-1 and 2c (crossing
  // an E/T boundary into the next Hilbert cell) sit on adjacent ABCD cells.
  const Coord a = t.coordOf(m.nodeOf(static_cast<RankId>(2 * c - 1)));
  const Coord b = t.coordOf(m.nodeOf(static_cast<RankId>(2 * c)));
  int diff = 0;
  for (std::size_t d = 0; d + 1 < t.ndims(); ++d) diff += std::abs(a[d] - b[d]);
  EXPECT_EQ(diff, 1);
}

// ---- Rubik / RHT -------------------------------------------------------------

TEST(RubikMapperTest, AutoConfigIsValid) {
  const Torus t = bgqPartition128();
  const int c = 2;
  const auto ranks = static_cast<RankId>(t.numNodes() * c);
  RubikMapper rm = RubikMapper::autoFor(ranks, t, c);
  const CommGraph g = emptyGraph(ranks);
  expectValid(rm.map(g, t, c), t, c);
  // Tiles hold one block's worth of ranks.
  const auto& cfg = rm.config();
  std::int64_t tileVol = 1, blockVol = 1;
  for (std::size_t d = 0; d < cfg.appTile.size(); ++d) tileVol *= cfg.appTile[d];
  for (std::size_t d = 0; d < cfg.machineBlock.size(); ++d) {
    blockVol *= cfg.machineBlock[d];
  }
  EXPECT_EQ(tileVol, blockVol * c);
}

TEST(RubikMapperTest, TileRanksLandInOneBlock) {
  const Torus t = Torus::torus(Shape{4, 4});
  const int c = 2;
  RubikConfig cfg;
  cfg.appShape = Shape{4, 8};
  cfg.appTile = Shape{2, 4};  // 8 ranks per tile = 4 nodes x c
  cfg.machineBlock = Shape{2, 2};
  RubikMapper rm(cfg);
  const CommGraph g = emptyGraph(32);
  const Mapping m = rm.map(g, t, c);
  expectValid(m, t, c);
  // All ranks of the first tile occupy the first 2x2 machine block.
  const Torus appGrid = Torus::mesh(cfg.appShape);
  for (RankId r = 0; r < 32; ++r) {
    const Coord ap = appGrid.coordOf(r);
    if (ap[0] < 2 && ap[1] < 4) {
      const Coord mc = t.coordOf(m.nodeOf(r));
      EXPECT_LT(mc[0], 2);
      EXPECT_LT(mc[1], 2);
    }
  }
}

TEST(RubikMapperTest, RejectsMismatchedShapes) {
  RubikConfig cfg;
  cfg.appShape = Shape{4, 8};
  cfg.appTile = Shape{3, 4};  // does not divide
  cfg.machineBlock = Shape{2, 2};
  EXPECT_THROW(RubikMapper{cfg}, PreconditionError);
}

// ---- Mapfile ----------------------------------------------------------------

TEST(Mapfile, RoundTrips) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const CommGraph g = emptyGraph(16);
  RandomMapper rm(3);
  const Mapping m = rm.map(g, t, 2);
  std::stringstream ss;
  writeMapfile(ss, m, t);
  const Mapping back = readMapfile(ss, t);
  ASSERT_EQ(back.numRanks(), m.numRanks());
  for (RankId r = 0; r < m.numRanks(); ++r) {
    EXPECT_EQ(back.nodeOf(r), m.nodeOf(r));
    EXPECT_EQ(back.slotOf(r), m.slotOf(r));
  }
}

TEST(Mapfile, RejectsMalformedLines) {
  const Torus t = Torus::torus(Shape{2, 2});
  {
    std::stringstream ss("0 0\n");  // too few fields
    EXPECT_THROW(readMapfile(ss, t), ParseError);
  }
  {
    std::stringstream ss("0 5 0\n");  // coordinate out of range
    EXPECT_THROW(readMapfile(ss, t), ParseError);
  }
  {
    std::stringstream ss("0 0 -1\n");  // negative slot
    EXPECT_THROW(readMapfile(ss, t), ParseError);
  }
  {
    std::stringstream ss("# comment only\n");
    const Mapping m = readMapfile(ss, t);
    EXPECT_EQ(m.numRanks(), 0);
  }
}

}  // namespace
}  // namespace rahtm
