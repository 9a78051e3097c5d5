// Tests for the IPM-style profiler: simulated profiling runs, comm/compute
// calibration (the Fig. 9 substitution), and profile serialization.

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "mapping/permutation.hpp"
#include "profile/profile.hpp"
#include "topology/torus.hpp"

namespace rahtm {
namespace {

simnet::SimConfig testSim() {
  simnet::SimConfig cfg;
  cfg.bytesPerFlit = 8;
  cfg.packetFlits = 8;
  return cfg;
}

TEST(Calibration, MatchesTargetFraction) {
  // compute = comm * (1-f)/f makes comm/(comm+compute) == f.
  const double comm = 1000;
  for (const double f : {0.35, 0.5, 0.7}) {
    const double compute = calibrateComputeCycles(comm, f);
    EXPECT_NEAR(comm / (comm + compute), f, 1e-12);
  }
  EXPECT_THROW(calibrateComputeCycles(100, 0.0), PreconditionError);
  EXPECT_THROW(calibrateComputeCycles(100, 1.0), PreconditionError);
}

TEST(ProfileRun, RecordsMatrixAndTimes) {
  const Torus t = Torus::torus(Shape{2, 2});
  const Workload w = makeBT(16, NasParams{256, 3});
  DefaultMapper mapper;
  const Mapping m = mapper.map(w.commGraph(), t, 4);
  const Profile p = profileRun(w, t, m, testSim(), 500);
  EXPECT_EQ(p.benchmark, "BT");
  EXPECT_EQ(p.ranks, 16);
  EXPECT_EQ(p.iterations, 3);
  EXPECT_GT(p.commTimePerIter, 0);
  EXPECT_DOUBLE_EQ(p.computeTimePerIter, 500);
  EXPECT_DOUBLE_EQ(p.matrix.totalVolume(), w.bytesPerIteration());
  EXPECT_GT(p.totalTime(), 0);
  EXPECT_GT(p.commFraction(), 0);
  EXPECT_LT(p.commFraction(), 1);
}

TEST(ProfileRun, CommFractionCalibratesToPaperTarget) {
  const Torus t = Torus::torus(Shape{2, 2});
  const Workload w = makeCG(16, NasParams{512, 2});
  DefaultMapper mapper;
  const Mapping m = mapper.map(w.commGraph(), t, 4);
  const auto comm = static_cast<double>(
      commCyclesPerIteration(w, t, m, testSim()));
  const double compute = calibrateComputeCycles(comm, w.commFraction);
  const Profile p = profileRun(w, t, m, testSim(), compute);
  EXPECT_NEAR(p.commFraction(), 0.70, 1e-9);
}

TEST(ProfileIo, RoundTrips) {
  Profile p;
  p.benchmark = "CG";
  p.ranks = 8;
  p.iterations = 5;
  p.commTimePerIter = 123.5;
  p.computeTimePerIter = 456.25;
  p.matrix = CommGraph(8);
  p.matrix.addFlow(0, 1, 100);
  p.matrix.addFlow(3, 7, 2.5);
  std::stringstream ss;
  writeProfile(ss, p);
  const Profile back = readProfile(ss);
  EXPECT_EQ(back.benchmark, "CG");
  EXPECT_EQ(back.ranks, 8);
  EXPECT_EQ(back.iterations, 5);
  EXPECT_DOUBLE_EQ(back.commTimePerIter, 123.5);
  EXPECT_DOUBLE_EQ(back.computeTimePerIter, 456.25);
  EXPECT_TRUE(back.matrix == p.matrix);
}

TEST(ProfileIo, RejectsMalformedInput) {
  {
    std::stringstream ss("benchmark X\n");  // missing ranks
    EXPECT_THROW(readProfile(ss), ParseError);
  }
  {
    std::stringstream ss("ranks 4\nflows 2\n0 1 5\n");  // flow count short
    EXPECT_THROW(readProfile(ss), ParseError);
  }
  {
    std::stringstream ss("ranks 4\nbogus_key 1\n");
    EXPECT_THROW(readProfile(ss), ParseError);
  }
  {
    std::stringstream ss("ranks 4\nflows 1\n0 1\n");  // malformed flow
    EXPECT_THROW(readProfile(ss), ParseError);
  }
  // Ids are read as 64-bit integers and must lie in [0, ranks), and bytes
  // must be finite and >= 0: each bad flow is an error naming its line.
  for (const char* flow : {"4294967297 1 5", "0 9 100", "0 -1 5", "0 1 inf",
                           "0 1 nan", "0 1 -3"}) {
    std::stringstream ss(std::string("ranks 4\nflows 1\n") + flow + "\n");
    try {
      readProfile(ss);
      ADD_FAILURE() << flow << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()).rfind("profile line 3: ", 0), 0u)
          << e.what();
    }
  }
  {
    std::stringstream ss("ranks 4294967297\n");  // wraps to 1 in 32 bits
    EXPECT_THROW(readProfile(ss), ParseError);
  }
  {
    std::stringstream ss("flows 1\nranks 4\n0 1 5\n");  // no count yet
    EXPECT_THROW(readProfile(ss), ParseError);
  }
}

TEST(CommRecorderTest, AggregatesSends) {
  CommRecorder rec(4);
  rec.recordSend(0, 1, 10);
  rec.recordSend(0, 1, 20);
  rec.recordSend(2, 3, 5);
  EXPECT_DOUBLE_EQ(rec.matrix().volume(0, 1), 30);
  EXPECT_DOUBLE_EQ(rec.matrix().volume(2, 3), 5);
  EXPECT_EQ(rec.matrix().numFlows(), 2u);
}

TEST(ProfileRun, BetterMappingLowersCommTime) {
  // The profiler must reflect mapping quality: co-locating heavy pairs cuts
  // simulated communication time.
  const Torus t = Torus::torus(Shape{2, 2});
  Workload w;
  w.name = "pairs";
  w.ranks = 8;
  w.iterations = 1;
  w.logicalGrid = Shape{8};
  simnet::Phase phase;
  for (RankId r = 0; r < 8; r += 2) {
    phase.push_back({r, static_cast<RankId>(r + 1), 4096});
  }
  w.phases.push_back(phase);

  Mapping together(8);  // heavy pairs co-located
  for (RankId r = 0; r < 8; ++r) {
    together.assign(r, static_cast<NodeId>(r / 2), r % 2);
  }
  Mapping apart(8);  // pairs split across nodes
  for (RankId r = 0; r < 8; ++r) {
    apart.assign(r, static_cast<NodeId>(r % 4), static_cast<int>(r / 4));
  }
  const auto ct = commCyclesPerIteration(w, t, together, testSim());
  const auto ca = commCyclesPerIteration(w, t, apart, testSim());
  EXPECT_LT(ct, ca);
}

}  // namespace
}  // namespace rahtm
