/// \file nas_mapping_study.cpp
/// A configurable mini-study over the paper's mapping roster: simulate one
/// NAS workload under every mapper and report communication time, MCL and
/// hop-bytes side by side. This is the interactive counterpart of
/// bench_fig10 — pick the benchmark, machine and concentration from the
/// command line.
///
/// Usage: nas_mapping_study [--benchmark CG] [--nodes 32|128|512]
///                          [--concentration 2] [--bytes 4096]

#include <iomanip>
#include <iostream>
#include <memory>
#include <vector>

#include "common/cli.hpp"
#include "core/bisection_mapper.hpp"
#include "core/greedy_mapper.hpp"
#include "core/rahtm.hpp"
#include "graph/stats.hpp"
#include "mapping/hilbert.hpp"
#include "mapping/permutation.hpp"
#include "mapping/rubik.hpp"
#include "profile/profile.hpp"
#include "routing/oblivious.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

int main(int argc, char** argv) {
  using namespace rahtm;
  try {
    const CliArgs args(argc, argv,
                       {"benchmark", "nodes", "concentration", "bytes"});
    const std::string bench = args.getString("benchmark", "CG");
    const std::int64_t nodes = args.getInt("nodes", 32);
    const int concentration =
        static_cast<int>(args.getInt("concentration", 2));

    Torus machine = torus32();
    if (nodes == 128) machine = bgqPartition128();
    else if (nodes == 512) machine = bgqPartition512();
    else if (nodes != 32) {
      std::cerr << "--nodes must be 32, 128 or 512\n";
      return 1;
    }

    const auto ranks =
        static_cast<RankId>(machine.numNodes() * concentration);
    NasParams params;
    params.messageBytes = args.getInt("bytes", 4096);
    const Workload w = makeNasByName(bench, ranks, params);
    const CommGraph g = w.commGraph();

    std::cout << "workload " << w.name << ", " << ranks << " ranks on "
              << machine.describe() << ", concentration " << concentration
              << "\n\n";

    const std::string permA(machine.ndims(), 'A');
    std::string spec1;  // ABC..T
    for (std::size_t d = 0; d < machine.ndims(); ++d) {
      spec1 += static_cast<char>('A' + d);
    }
    const std::string specT = "T" + spec1;
    spec1 += 'T';

    std::vector<std::unique_ptr<TaskMapper>> mappers;
    mappers.push_back(std::make_unique<DefaultMapper>());
    mappers.push_back(std::make_unique<PermutationMapper>(specT));
    mappers.push_back(std::make_unique<HilbertMapper>());
    mappers.push_back(
        std::make_unique<RubikMapper>(RubikMapper::autoFor(ranks, machine,
                                                           concentration)));
    mappers.push_back(std::make_unique<GreedyHopBytesMapper>(w.logicalGrid));
    mappers.push_back(
        std::make_unique<RecursiveBisectionMapper>(w.logicalGrid));
    mappers.push_back(std::make_unique<RahtmMapper>());

    simnet::SimConfig sim;
    std::cout << std::left << std::setw(10) << "mapping" << std::right
              << std::setw(14) << "comm cycles" << std::setw(12) << "vs base"
              << std::setw(12) << "MCL" << std::setw(14) << "hop-bytes"
              << "\n";
    double baseline = 0;
    for (auto& mapper : mappers) {
      Mapping m;
      if (auto* rahtm = dynamic_cast<RahtmMapper*>(mapper.get())) {
        m = rahtm->mapWorkload(w, machine, concentration);
      } else {
        m = mapper->map(g, machine, concentration);
      }
      const std::string err = m.validate(machine, concentration);
      if (!err.empty()) {
        std::cerr << mapper->name() << ": invalid mapping: " << err << "\n";
        return 1;
      }
      const auto cycles =
          static_cast<double>(commCyclesPerIteration(w, machine, m, sim));
      if (baseline == 0) baseline = cycles;
      std::cout << std::left << std::setw(10) << mapper->name() << std::right
                << std::setw(14) << cycles << std::setw(11) << std::fixed
                << std::setprecision(1) << 100.0 * cycles / baseline << "%"
                << std::setw(12) << std::setprecision(0)
                << placementMcl(machine, g, m.nodeVector()) << std::setw(14)
                << hopBytes(g, machine, m.nodeVector()) << "\n";
      std::cout.unsetf(std::ios::fixed);
      std::cout << std::setprecision(6);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
