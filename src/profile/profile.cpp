#include "profile/profile.hpp"

#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace rahtm {

std::int64_t commCyclesPerIteration(const Workload& workload,
                                    const Torus& topo, const Mapping& mapping,
                                    const simnet::SimConfig& simConfig,
                                    int simIterations) {
  RAHTM_REQUIRE(simIterations >= 1, "commCyclesPerIteration: bad repetition");
  std::vector<simnet::Phase> stages;
  stages.reserve(workload.phases.size() *
                 static_cast<std::size_t>(simIterations));
  for (int k = 0; k < simIterations; ++k) {
    stages.insert(stages.end(), workload.phases.begin(),
                  workload.phases.end());
  }
  return simnet::simulateIteration(topo, mapping, stages, simConfig).cycles /
         simIterations;
}

double calibrateComputeCycles(double baselineCommCycles, double commFraction) {
  RAHTM_REQUIRE(commFraction > 0 && commFraction < 1,
                "calibrateComputeCycles: fraction must be in (0,1)");
  return baselineCommCycles * (1.0 - commFraction) / commFraction;
}

Profile profileRun(const Workload& workload, const Torus& topo,
                   const Mapping& mapping, const simnet::SimConfig& simConfig,
                   double computeCyclesPerIter) {
  Profile p;
  p.benchmark = workload.name;
  p.ranks = workload.ranks;
  p.iterations = workload.iterations;
  CommRecorder recorder(workload.ranks);
  for (const simnet::Phase& phase : workload.phases) {
    for (const simnet::Message& m : phase) {
      recorder.recordSend(m.src, m.dst, static_cast<double>(m.bytes));
    }
  }
  p.matrix = recorder.matrix();
  p.commTimePerIter = static_cast<double>(
      commCyclesPerIteration(workload, topo, mapping, simConfig));
  p.computeTimePerIter = computeCyclesPerIter;
  return p;
}

void writeProfile(std::ostream& os, const Profile& p) {
  os << "benchmark " << p.benchmark << "\n";
  os << "ranks " << p.ranks << "\n";
  os << "iterations " << p.iterations << "\n";
  os << "comm_time " << p.commTimePerIter << "\n";
  os << "compute_time " << p.computeTimePerIter << "\n";
  os << "flows " << p.matrix.numFlows() << "\n";
  for (const Flow& f : p.matrix.flows()) {
    os << f.src << ' ' << f.dst << ' ' << f.bytes << "\n";
  }
}

Profile readProfile(std::istream& is) {
  Profile p;
  std::string line;
  int lineNo = 0;
  long flowsExpected = -1;
  long flowsSeen = 0;
  bool sawRanks = false;
  while (std::getline(is, line)) {
    ++lineNo;
    const auto t = trim(line);
    if (t.empty() || t.front() == '#') continue;
    const auto fields = splitWhitespace(t);
    const std::string where = "profile line " + std::to_string(lineNo);
    const auto fail = [&](const std::string& why) {
      throw ParseError(where + ": " + why);
    };
    if (flowsExpected >= 0 && flowsSeen < flowsExpected) {
      const Flow f = parseFlowLine(fields, p.ranks, where);
      p.matrix.addFlow(f.src, f.dst, f.bytes);
      ++flowsSeen;
      continue;
    }
    if (fields.size() != 2) fail("expected '<key> <value>'");
    const std::string& key = fields[0];
    if (key == "benchmark") {
      p.benchmark = fields[1];
    } else if (key == "ranks") {
      p.ranks = parseRankCount(fields[1], where);
      p.matrix.ensureRanks(p.ranks);
      sawRanks = true;
    } else if (key == "iterations") {
      p.iterations = static_cast<int>(parseInt(fields[1]));
    } else if (key == "comm_time") {
      p.commTimePerIter = parseDouble(fields[1]);
    } else if (key == "compute_time") {
      p.computeTimePerIter = parseDouble(fields[1]);
    } else if (key == "flows") {
      if (!sawRanks) fail("'flows' before 'ranks'");
      flowsExpected = parseInt(fields[1]);
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  if (!sawRanks) throw ParseError("profile: missing 'ranks' header");
  if (flowsExpected >= 0 && flowsSeen != flowsExpected) {
    throw ParseError("profile: expected " + std::to_string(flowsExpected) +
                     " flows, found " + std::to_string(flowsSeen));
  }
  return p;
}

}  // namespace rahtm
