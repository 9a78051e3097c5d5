/// \file quickstart.cpp
/// Minimal end-to-end use of the RAHTM library:
///   1. describe the machine (a BG/Q-like torus partition),
///   2. build (or load) the application's communication graph,
///   3. run the RAHTM mapper,
///   4. write a BG/Q-style mapfile and report the mapping quality.
///
/// Usage: quickstart [--benchmark BT|SP|CG] [--ranks N] [--out mapfile.txt]

#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "core/rahtm.hpp"
#include "graph/stats.hpp"
#include "mapping/mapfile.hpp"
#include "mapping/permutation.hpp"
#include "routing/oblivious.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace rahtm;
  try {
    const CliArgs args(argc, argv, {"verbose", "benchmark", "ranks", "out"});
    if (args.getBool("verbose")) setLogLevel(LogLevel::Info);
    const std::string bench = args.getString("benchmark", "CG");
    const auto ranks = static_cast<RankId>(args.getInt("ranks", 256));
    const std::string outPath = args.getString("out", "rahtm_mapfile.txt");

    // 1. The machine: 4x4x4x2 torus (128 nodes), 2 ranks per node.
    const Torus machine = bgqPartition128();
    const int concentration =
        static_cast<int>(ranks / static_cast<RankId>(machine.numNodes()));
    if (ranks != machine.numNodes() * concentration || concentration < 1) {
      std::cerr << "ranks must be a positive multiple of "
                << machine.numNodes() << "\n";
      return 1;
    }

    // 2. The application: a synthetic NAS benchmark's communication graph.
    const Workload workload = makeNasByName(bench, ranks);
    const CommGraph graph = workload.commGraph();
    const GraphStats stats = computeStats(graph);
    std::cout << "workload " << workload.name << ": " << stats.ranks
              << " ranks, " << stats.flows << " flows, " << stats.totalVolume
              << " bytes/iteration\n";

    // 3. Map with RAHTM (and with the ABCDET default, for comparison).
    RahtmMapper rahtm;
    const Mapping mapping = rahtm.mapWorkload(workload, machine, concentration);
    DefaultMapper fallback;
    const Mapping defaultMapping = fallback.map(graph, machine, concentration);

    const double mclRahtm = placementMcl(machine, graph, mapping.nodeVector());
    const double mclDefault =
        placementMcl(machine, graph, defaultMapping.nodeVector());
    std::cout << "max channel load (MAR model): RAHTM " << mclRahtm
              << " vs ABCDET " << mclDefault << "  ("
              << (mclDefault > 0 ? 100.0 * (1.0 - mclRahtm / mclDefault) : 0)
              << "% lower)\n";
    std::cout << "mapping time: " << rahtm.stats().totalSeconds << " s ("
              << rahtm.stats().subproblemsSolved << " subproblems)\n";

    // 4. Deliverable: the mapfile the MPI runtime would consume.
    std::ofstream out(outPath);
    writeMapfile(out, mapping, machine);
    std::cout << "wrote " << outPath << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
