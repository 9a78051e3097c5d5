/// \file workload_cg.cpp
/// cg64: NAS CG, 64 ranks on the 2x2x2x2x2 torus at concentration 2, the
/// default RAHTM configuration. Closed loop, one client, of 1-thread
/// solves; one more solve per run at min(4, nproc) threads must give the
/// identical mapping. Home of pin (the anneal probe kernel), merge, refine
/// and the exec pool.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/clustering.hpp"
#include "core/rahtm.hpp"
#include "graph/stats.hpp"
#include "routing/delta_eval.hpp"
#include "routing/oblivious.hpp"
#include "simnet/simulator.hpp"
#include "workloads.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = 64;
constexpr int kConcentration = 2;
constexpr int kSetupReps = 50;
constexpr double kSetupSec = 0.05;
constexpr double kEvalSec = 0.5;

struct Input {
  rahtm::Workload workload;
  rahtm::CommGraph graph;
};

Input makeInput() {
  Input in;
  in.workload = rahtm::makeCG(kRanks);
  in.graph = in.workload.commGraph();
  return in;
}

struct Solve {
  rahtm::Mapping mapping;
  rahtm::RahtmStats stats;
  double seconds = 0;
};

Solve solve(const Telemetry& tel, const Input& in, const rahtm::Torus& machine,
            std::uint64_t annealSeed, int threads) {
  rahtm::RahtmConfig cfg;
  cfg.logicalGrid = in.workload.logicalGrid;
  cfg.subproblem.seed = annealSeed;
  cfg.numThreads = threads;
  rahtm::RahtmMapper mapper(cfg);
  Solve s;
  auto span = tel.span(threads == 1 ? "bench.rahtm_map.t1"
                                    : "bench.rahtm_map.tN");
  s.mapping = mapper.map(in.graph, machine, kConcentration);
  s.seconds = span.close();
  s.stats = mapper.stats();
  return s;
}

/// Mapping::validate, and placementMcl recomputed on the rank mapping
/// against the mcl the solver reports for its final node-cluster placement
/// (equal up to floating-point summation order).
void checkSolve(Checks& c, const Solve& s, const Input& in,
                const rahtm::Torus& machine, const char* what) {
  const std::string err = s.mapping.validate(machine, kConcentration);
  c.expect(err.empty(), std::string(what) + ": invalid mapping: " + err);
  const double mcl =
      rahtm::placementMcl(machine, in.graph, s.mapping.nodeVector());
  const double reported =
      s.stats.phaseQuality.empty() ? -1 : s.stats.phaseQuality.back().mcl;
  c.expect(std::abs(mcl - reported) <= 1e-9 * std::abs(mcl),
           std::string(what) + ": placementMcl " + std::to_string(mcl) +
               " != reported " + std::to_string(reported));
}

double phaseMcl(const rahtm::RahtmStats& stats, const std::string& phase) {
  for (const rahtm::PhaseQuality& q : stats.phaseQuality) {
    if (q.phase == phase) return q.mcl;
  }
  return 0;
}

/// Probe / commit throughput of the delta engine over the workload's own
/// node-cluster graph (the graph pin anneals), identity placement.
void probeDeltaEngine(Layers& layers, const Input& in,
                      const rahtm::Torus& machine, std::uint64_t seed) {
  const rahtm::TilingResult tiles = rahtm::bestTiling(
      in.graph, in.workload.logicalGrid, kConcentration);
  const rahtm::CommGraph& g = tiles.coarseGraph;
  std::vector<rahtm::NodeId> placement(
      static_cast<std::size_t>(g.numRanks()));
  for (std::size_t v = 0; v < placement.size(); ++v) {
    placement[v] = static_cast<rahtm::NodeId>(v);
  }
  rahtm::DeltaPlacementEval eval(machine, g, placement, {},
                                 rahtm::RouteTable::buildFull(machine));
  const auto n = static_cast<std::uint64_t>(g.numRanks());
  std::uint64_t state = mix(seed);
  auto pair = [&] {
    state = mix(state);
    const auto a = static_cast<rahtm::RankId>(state % n);
    auto b = static_cast<rahtm::RankId>((state >> 32) % (n - 1));
    if (b >= a) ++b;
    return std::make_pair(a, b);
  };
  double sink = 0;
  for (const bool commit : {false, true}) {
    std::int64_t ops = 0;
    const double t0 = now();
    double elapsed = 0;
    while (elapsed < 0.5) {
      for (int k = 0; k < 256; ++k) {
        const auto [a, b] = pair();
        sink += eval.probeSwap(a, b).mcl;
        if (commit) eval.commit();
      }
      ops += 256;
      elapsed = now() - t0;
    }
    layers[commit ? "routing.commits_per_s" : "routing.probes_per_s"] =
        static_cast<double>(ops) / elapsed;
  }
  if (sink < 0) std::cerr << sink;  // keep the probes observable
}

}  // namespace

void runCg64(const Options& opt, Telemetry& tel, Result& result) {
  const rahtm::Torus machine = rahtm::Torus::torus(rahtm::Shape{2, 2, 2, 2, 2});
  Input in;
  const std::vector<double> setups =
      repeatFor(kSetupSec, kSetupReps, [&] { in = makeInput(); });
  const std::uint64_t annealSeed = mix(opt.seed);

  // Closed loop of 1-thread solves, each on the next CPU. In the traced
  // run, odd operations are traced and even ones are not, so the same run
  // measures the tracing overhead.
  std::vector<double> opSec, solveT1, tracedT1, untracedT1;
  std::vector<rahtm::RahtmStats> tracedStats;
  rahtm::Mapping reference;
  const double start = now();
  double end = start;
  for (int op = 0; end - start < opt.seconds || op < 2; ++op) {
    const bool traced = tel.active() && op % 2 == 1;
    pinToNextCpu();
    tel.setEnabled(traced);
    const double t0 = now();
    Checks c;
    const Solve a = solve(tel, in, machine, annealSeed, 1);
    checkSolve(c, a, in, machine, "1-thread solve");
    if (op == 0) reference = a.mapping;
    c.expect(a.mapping == reference, "mapping differs from the first solve");
    end = now();
    tel.setEnabled(false);
    result.operation(c.problems());

    opSec.push_back(end - t0);
    solveT1.push_back(a.seconds);
    (traced ? tracedT1 : untracedT1).push_back(a.seconds);
    if (traced) tracedStats.push_back(a.stats);
  }
  const double peakRss = peakRssMb();
  // Work counters per traced 1-thread solve, read before the threaded
  // solve adds to them.
  std::map<std::string, double> perSolve;
  for (const char* name :
       {"rahtm.subproblems", "rahtm.anneal.probes", "rahtm.merge.candidates",
        "rahtm.refine.probes", "rahtm.refine.dense_sweeps"}) {
    perSolve[name] =
        static_cast<double>(tel.counter(name)) /
        static_cast<double>(std::max<std::size_t>(1, tracedStats.size()));
  }

  // One solve at min(4, nproc) threads: the mapping must be identical.
  unpin();
  tel.setEnabled(true);
  const std::int64_t tasksBefore = tel.counter("exec.pool.tasks");
  Checks threadedChecks;
  const Solve threaded = solve(tel, in, machine, annealSeed, opt.threads);
  checkSolve(threadedChecks, threaded, in, machine, "threaded solve");
  threadedChecks.expect(threaded.mapping == reference,
                        "1-thread and threaded mappings differ");
  result.operation(threadedChecks.problems());
  const std::int64_t poolTasks = tel.counter("exec.pool.tasks") - tasksBefore;
  tel.setEnabled(false);

  // Evaluation: the mapping simulated at cycle and flow fidelity under the
  // Fig. 10 traffic, repeated; cycles must repeat exactly.
  const std::vector<rahtm::simnet::Phase> stages = evalStages("CG", kRanks);
  std::vector<double> cycleSec, flowSec;
  std::int64_t cycles = -1;
  std::int64_t flitHops = 0;
  const std::vector<double> evalSec = repeatFor(kEvalSec, 3, [&] {
    Checks c;
    const SimPair p =
        simulateBoth(tel, machine, reference, stages, cycles, c, "cg64");
    cycles = p.cycle.cycles;
    flitHops = p.cycle.flitHops;
    cycleSec.push_back(p.cycleSec);
    flowSec.push_back(p.flowSec);
    result.operation(c.problems());
  });

  if (!opt.trace) {
    EndToEnd e;
    e.setupSec = median(setups);
    e.latencyP50 = median(opSec);
    e.latencyP90 = quantile(opSec, 0.9);
    e.servedPerSec = static_cast<double>(opSec.size()) / (end - start);
    e.solveSec = median(solveT1);
    e.mcl = rahtm::placementMcl(machine, in.graph, reference.nodeVector());
    e.hopBytes = rahtm::hopBytes(in.graph, machine, reference.nodeVector());
    e.simCycles = static_cast<double>(cycles);
    e.peakRssMb = peakRss;
    addEndToEnd(result, e);
    return;
  }

  Layers layers;
  layers["workloads.gen_s"] = median(setups);
  const RouteTableProbe routes = probeRouteTable(machine, 5, 0.5, opt.seed);
  layers["routing.table_build_s"] = routes.buildSeconds;
  layers["routing.table_mb"] = routes.tableMb;
  layers["routing.route_entries"] = routes.entries;
  layers["routing.reads_per_s"] = routes.readsPerSec;
  probeDeltaEngine(layers, in, machine, opt.seed);

  std::vector<double> cluster, pin, merge, refine;
  for (const rahtm::RahtmStats& s : tracedStats) {
    cluster.push_back(s.clusterSeconds);
    pin.push_back(s.pinSeconds);
    merge.push_back(s.mergeSeconds);
    refine.push_back(s.refineSeconds);
  }
  layers["core.cluster_s"] = median(cluster);
  layers["core.pin_s"] = median(pin);
  layers["core.merge_s"] = median(merge);
  layers["core.refine_s"] = median(refine);
  layers["core.subproblems"] = perSolve["rahtm.subproblems"];
  layers["core.anneal_probes"] = perSolve["rahtm.anneal.probes"];
  layers["core.merge_candidates"] = perSolve["rahtm.merge.candidates"];
  layers["core.merge_candidates_per_s"] =
      perSolve["rahtm.merge.candidates"] / median(merge);
  layers["core.refine_probes"] = perSolve["rahtm.refine.probes"];
  layers["core.refine_dense_sweeps"] = perSolve["rahtm.refine.dense_sweeps"];
  layers["core.pin_mcl"] = phaseMcl(tracedStats.front(), "pin");
  layers["core.merge_mcl"] = phaseMcl(tracedStats.front(), "merge");
  layers["core.refine_mcl"] = phaseMcl(tracedStats.front(), "refine");
  layers["exec.pool_tasks"] = static_cast<double>(poolTasks);
  layers["exec.pool_utilization"] = tel.gauge("exec.pool.utilization");
  layers["exec.solve_s_t4"] = threaded.seconds;
  layers["exec.speedup_t4"] = median(untracedT1) / threaded.seconds;
  layers["simnet.eval_s"] = median(evalSec);
  layers["simnet.cycle_s"] = median(cycleSec);
  layers["simnet.flow_s"] = median(flowSec);
  layers["simnet.cycles_per_s"] =
      static_cast<double>(cycles) / median(cycleSec);
  layers["simnet.flit_hops"] = static_cast<double>(flitHops);
  layers["obs.trace_overhead"] = traceOverhead(tracedT1, untracedT1);
  addPerLayer(result, layers);
  addMemoryMetrics(result);
}

}  // namespace perfbench
