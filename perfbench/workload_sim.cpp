/// \file workload_sim.cpp
/// sim_eval: the paper's Fig. 10 loop. BT, SP and CG at 1024 ranks on the
/// 4x4x4x4 torus, concentration 4, 64 KB messages, each mapped once by
/// abcdet, hilbert, rht and greedy during set-up. Closed loop: each round
/// simulates every mapping at cycle fidelity and at flow fidelity. Home of
/// simnet, and of the routing layer as flow mode reads it. The solver does
/// no work here; solve_s times a pass over the twelve baseline mappings
/// after every simulation, so its median samples the whole window.

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/greedy_mapper.hpp"
#include "graph/stats.hpp"
#include "mapping/hilbert.hpp"
#include "mapping/permutation.hpp"
#include "mapping/rubik.hpp"
#include "routing/oblivious.hpp"
#include "simnet/simulator.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

constexpr int kConcentration = 4;
constexpr std::int64_t kMessageBytes = 64 * 1024;
constexpr int kSetupReps = 5;
const char* const kBenchmarks[] = {"BT", "SP", "CG"};

struct Case {
  std::string name;  ///< benchmark/mapper
  const rahtm::Workload* workload = nullptr;
  rahtm::CommGraph graph;
  std::unique_ptr<rahtm::TaskMapper> mapper;
  rahtm::Mapping mapping;
};

struct Setup {
  std::vector<rahtm::Workload> workloads;
  std::vector<Case> cases;
  double genSec = 0;
};

Setup buildSetup(const rahtm::Torus& machine) {
  Setup s;
  const auto ranks =
      static_cast<rahtm::RankId>(machine.numNodes() * kConcentration);
  rahtm::NasParams params;
  params.messageBytes = kMessageBytes;
  const double t0 = now();
  for (const char* b : kBenchmarks) {
    s.workloads.push_back(rahtm::makeNasByName(b, ranks, params));
  }
  s.genSec = now() - t0;
  for (const rahtm::Workload& w : s.workloads) {
    const rahtm::CommGraph graph = w.commGraph();
    std::vector<std::pair<std::string, std::unique_ptr<rahtm::TaskMapper>>>
        mappers;
    mappers.emplace_back("abcdet", std::make_unique<rahtm::DefaultMapper>());
    mappers.emplace_back("hilbert", std::make_unique<rahtm::HilbertMapper>());
    mappers.emplace_back("rht",
                         std::make_unique<rahtm::RubikMapper>(
                             rahtm::RubikMapper::autoFor(ranks, machine,
                                                         kConcentration)));
    mappers.emplace_back(
        "greedy", std::make_unique<rahtm::GreedyHopBytesMapper>(w.logicalGrid));
    for (auto& [name, mapper] : mappers) {
      Case c;
      c.name = w.name + "/" + name;
      c.workload = &w;
      c.graph = graph;
      c.mapping = mapper->map(graph, machine, kConcentration);
      c.mapper = std::move(mapper);
      s.cases.push_back(std::move(c));
    }
  }
  return s;
}

}  // namespace

void runSimEval(const Options& opt, Telemetry& tel, Result& result) {
  const rahtm::Torus machine = rahtm::Torus::torus(rahtm::Shape{4, 4, 4, 4});
  std::vector<double> setups, genSec;
  Setup setup;
  for (int i = 0; i < kSetupReps; ++i) {
    pinToNextCpu();
    const double t0 = now();
    setup = buildSetup(machine);
    setups.push_back(now() - t0);
    genSec.push_back(setup.genSec);
  }
  std::vector<double> mcl, hop;
  for (const Case& c : setup.cases) {
    Checks checks;
    const std::string err = c.mapping.validate(machine, kConcentration);
    checks.expect(err.empty(), c.name + ": invalid mapping: " + err);
    result.operation(checks.problems());
    mcl.push_back(rahtm::placementMcl(machine, c.graph, c.mapping.nodeVector()));
    hop.push_back(rahtm::hopBytes(c.graph, machine, c.mapping.nodeVector()));
  }

  // The seed orders the simulations within a round; results do not depend
  // on the order, so sim_cycles stays deterministic.
  std::vector<std::size_t> order(setup.cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(mix(opt.seed)));
  // One pass over the twelve mappings (a few milliseconds each); every pass
  // must give the set-up's mappings again. Returns its duration.
  std::vector<double> solveSec;
  const auto solvePass = [&](Checks& checks) {
    const double t0 = now();
    for (Case& c : setup.cases) {
      checks.expect(c.mapper->map(c.graph, machine, kConcentration) == c.mapping,
                    c.name + ": mapping differs from the set-up's");
    }
    solveSec.push_back(now() - t0);
    return solveSec.back();
  };
  // Closed loop over rounds; in the traced run odd rounds are traced. Round
  // times and the evaluation rate leave the solve passes out.
  std::vector<double> roundSec, cycleSec, flowSec, tracedRound, untracedRound;
  std::vector<std::int64_t> firstCycles(setup.cases.size(), -1);
  std::int64_t cyclesSimulated = 0;
  std::int64_t flitHops = 0;
  double solveTotal = 0;
  const double start = now();
  double end = start;
  for (int round = 0; end - start < opt.seconds || round < 2; ++round) {
    const bool traced = tel.active() && round % 2 == 1;
    tel.setEnabled(traced);
    const double r0 = now();
    double roundSolve = 0;
    std::int64_t roundHops = 0;
    for (const std::size_t i : order) {
      const Case& c = setup.cases[i];
      Checks checks;
      pinToNextCpu();
      const SimPair p = simulateBoth(tel, machine, c.mapping,
                                     c.workload->phases, firstCycles[i],
                                     checks, c.name);
      cycleSec.push_back(p.cycleSec);
      flowSec.push_back(p.flowSec);
      firstCycles[i] = p.cycle.cycles;
      roundSolve += solvePass(checks);
      result.operation(checks.problems());
      cyclesSimulated += p.cycle.cycles;
      roundHops += p.cycle.flitHops;
    }
    end = now();
    tel.setEnabled(false);
    solveTotal += roundSolve;
    roundSec.push_back(end - r0 - roundSolve);
    (traced ? tracedRound : untracedRound).push_back(roundSec.back());
    flitHops = roundHops;
  }
  unpin();
  const double peakRss = peakRssMb();

  if (!opt.trace) {
    std::vector<double> cycles(firstCycles.begin(), firstCycles.end());
    EndToEnd e;
    e.setupSec = median(setups);
    e.latencyP50 = median(cycleSec);
    e.latencyP90 = quantile(cycleSec, 0.9);
    e.servedPerSec =
        static_cast<double>(roundSec.size() * setup.cases.size()) /
        (end - start - solveTotal);
    e.solveSec = median(solveSec);
    e.mcl = geomean(mcl);
    e.hopBytes = geomean(hop);
    e.simCycles = geomean(cycles);
    e.peakRssMb = peakRss;
    addEndToEnd(result, e);
    return;
  }

  Layers layers;
  layers["workloads.gen_s"] = median(genSec);
  const RouteTableProbe routes = probeRouteTable(machine, 1, 0.5, opt.seed);
  layers["routing.table_build_s"] = routes.buildSeconds;
  layers["routing.table_mb"] = routes.tableMb;
  layers["routing.route_entries"] = routes.entries;
  layers["routing.reads_per_s"] = routes.readsPerSec;
  layers["simnet.eval_s"] = median(roundSec);
  layers["simnet.cycle_s"] = median(cycleSec);
  layers["simnet.flow_s"] = median(flowSec);
  double cycleTotal = 0;
  for (const double s : cycleSec) cycleTotal += s;
  layers["simnet.cycles_per_s"] =
      static_cast<double>(cyclesSimulated) / cycleTotal;
  layers["simnet.flit_hops"] = static_cast<double>(flitHops);
  layers["obs.trace_overhead"] = traceOverhead(tracedRound, untracedRound);
  addPerLayer(result, layers);
  addMemoryMetrics(result);
}

}  // namespace perfbench
