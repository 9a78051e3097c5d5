/// \file bench_ablation_refine.cpp
/// Ablation of the two extensions this implementation adds past the
/// paper's three phases (DESIGN.md, refine.hpp): the final pairwise-swap
/// refinement and the canonical-seed portfolio. Quantifies how much of the
/// end result comes from the paper's pipeline alone.

#include <iomanip>
#include <iostream>

#include "bench/experiment.hpp"
#include "profile/profile.hpp"
#include "routing/oblivious.hpp"

int main(int argc, char** argv) {
  const auto telemetry = rahtm::bench::telemetryFromCli(argc, argv);
  using namespace rahtm;
  using namespace rahtm::bench;
  const ExperimentScale scale = ExperimentScale::fromEnv();

  struct Mode {
    const char* name;
    bool refine;
    bool canonical;
  };
  const Mode modes[] = {
      {"paper-only", false, false},   // phases 1-3 exactly
      {"+refine", true, false},
      {"+refine+canon", true, true},  // the shipped default
  };

  std::cout << "Ablation: final refinement and canonical-seed portfolio\n\n";
  std::cout << std::left << std::setw(6) << "bench" << std::setw(15) << "mode"
            << std::right << std::setw(12) << "MCL" << std::setw(14)
            << "comm cycles" << std::setw(12) << "map sec" << "\n";
  for (const char* name : {"BT", "SP", "CG"}) {
    const Workload w = makeNasByName(name, scale.ranks(), scale.params);
    const CommGraph g = w.commGraph();
    for (const Mode& mode : modes) {
      RahtmConfig cfg;
      cfg.finalRefinement = mode.refine;
      cfg.canonicalSeed = mode.canonical;
      RahtmMapper mapper(cfg);
      const Mapping m =
          mapper.mapWorkload(w, scale.machine, scale.concentration);
      const auto cycles = static_cast<double>(commCyclesPerIteration(
          w, scale.machine, m, scale.sim, scale.simIterations));
      std::cout << std::left << std::setw(6) << name << std::setw(15)
                << mode.name << std::right << std::setw(12)
                << placementMcl(scale.machine, g, m.nodeVector())
                << std::setw(14) << cycles << std::setw(12) << std::fixed
                << std::setprecision(2) << mapper.stats().totalSeconds
                << "\n";
      std::cout.unsetf(std::ios::fixed);
      std::cout << std::setprecision(6);
    }
  }
  std::cout << "\nExpected: the paper's pipeline captures most of the win on "
               "the grid\nbenchmarks; refinement tightens it, and the "
               "canonical seed only matters\nwhere the pattern is "
               "bisection-bound (CG at high concentration).\n";
  return 0;
}
