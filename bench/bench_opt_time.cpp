/// \file bench_opt_time.cpp
/// §V-B of the paper: offline optimization (mapping) time. The paper
/// reports 33 minutes (BT) to 35 hours (CG) on a CPLEX workstation; at our
/// scale the absolute numbers shrink but the structure holds — time is
/// dominated by the per-level subproblem solves and grows with the
/// benchmark's communication complexity. Reported per phase, with the
/// solver portfolio breakdown.
///
/// --threads N (or RAHTM_THREADS) additionally runs every benchmark with
/// the parallel execution layer and reports the pin-phase and total
/// speedups over the serial run; the two runs must produce identical
/// mappings (checked), demonstrating the determinism contract.

#include <iomanip>
#include <iostream>
#include <optional>

#include "bench/experiment.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "exec/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace rahtm;
  using namespace rahtm::bench;
  std::optional<CliArgs> parsed;
  try {
    parsed.emplace(argc, argv,
                   std::vector<std::string>{"threads", "trace-out",
                                            "trace-summary", "metrics-out"});
  } catch (const ParseError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  const CliArgs& args = *parsed;
  const auto telemetry = telemetryFromCli(argc, argv);
  const ExperimentScale scale = ExperimentScale::fromEnv();
  const int threads = exec::ThreadPool::resolveThreads(
      args.has("threads")
          ? exec::parseThreads(args.getString("threads", ""), "--threads")
          : exec::threadsFromEnv());

  std::cout << "Optimization time (offline mapping cost, seconds)\n\n";
  std::cout << std::left << std::setw(6) << "bench" << std::right
            << std::setw(10) << "cluster" << std::setw(10) << "pin"
            << std::setw(10) << "merge" << std::setw(10) << "total"
            << std::setw(9) << "subpbs";
  if (threads > 1) {
    std::cout << std::setw(10) << "pin(xN)" << std::setw(10) << "tot(xN)";
  }
  std::cout << "  methods\n";
  for (const char* name : {"BT", "SP", "CG"}) {
    const Workload w = makeNasByName(name, scale.ranks(), scale.params);
    RahtmMapper mapper;
    const Mapping serial = mapper.mapWorkload(w, scale.machine,
                                              scale.concentration);
    const RahtmStats s = mapper.stats();
    std::cout << std::left << std::setw(6) << name << std::right
              << std::setw(10) << std::fixed << std::setprecision(3)
              << s.clusterSeconds << std::setw(10) << s.pinSeconds
              << std::setw(10) << s.mergeSeconds << std::setw(10)
              << s.totalSeconds << std::setw(9) << s.subproblemsSolved;
    if (threads > 1) {
      RahtmMapper par;
      par.config().numThreads = threads;
      const Mapping threaded =
          par.mapWorkload(w, scale.machine, scale.concentration);
      const RahtmStats& p = par.stats();
      std::cout << std::setw(9) << std::setprecision(2)
                << (p.pinSeconds > 0 ? s.pinSeconds / p.pinSeconds : 0.0)
                << "x" << std::setw(9)
                << (p.totalSeconds > 0 ? s.totalSeconds / p.totalSeconds : 0.0)
                << "x" << std::setprecision(3);
      if (threaded.nodeVector() != serial.nodeVector()) {
        std::cout << "  DETERMINISM VIOLATION";
      }
    }
    std::cout << "  ";
    bool first = true;
    for (const auto& [method, count] : s.solverMethodCounts) {
      std::cout << (first ? "" : ", ") << count << " " << method;
      first = false;
    }
    std::cout << "\n";
    std::cout.unsetf(std::ios::fixed);
  }
  if (threads > 1) {
    std::cout << "\nThreaded columns: serial time / " << threads
              << "-thread time (higher is better).\n";
  }
  std::cout << "\nThe cost is incurred once per (application, scale) pair "
               "and amortized\nover repeated runs — the paper's compiler-"
               "optimization analogy.\n";
  return 0;
}
