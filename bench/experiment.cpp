#include "bench/experiment.hpp"

#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "exec/thread_pool.hpp"
#include "graph/stats.hpp"
#include "mapping/hilbert.hpp"
#include "mapping/permutation.hpp"
#include "mapping/rubik.hpp"
#include "profile/profile.hpp"
#include "routing/oblivious.hpp"
#include "topology/presets.hpp"

namespace rahtm::bench {

namespace {

/// Environment variable \p name as a T, or \p fallback when unset. A
/// malformed or out-of-range value is a ParseError naming the variable.
template <typename T>
T envInt(const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const std::string where = std::string(name) + ": ";
  std::int64_t value = 0;
  try {
    value = parseInt(v);
  } catch (const ParseError& e) {
    throw ParseError(where + e.what());
  }
  if (!std::in_range<T>(value)) {
    throw ParseError(where + "out of range: '" + v + "'");
  }
  return static_cast<T>(value);
}

/// The paper's ACEBDT permutation interleaves odd-position dimensions
/// before even ones; build the analogue for any dimensionality.
std::string interleavedSpec(std::size_t ndims) {
  std::string spec;
  for (std::size_t d = 0; d < ndims; d += 2) {
    spec += static_cast<char>('A' + d);
  }
  for (std::size_t d = 1; d < ndims; d += 2) {
    spec += static_cast<char>('A' + d);
  }
  return spec + "T";
}

std::string canonicalSpec(std::size_t ndims) {
  std::string spec;
  for (std::size_t d = 0; d < ndims; ++d) spec += static_cast<char>('A' + d);
  return spec + "T";
}

}  // namespace

std::unique_ptr<obs::TelemetrySession> telemetryFromCli(int argc,
                                                        char** argv) {
  obs::TelemetryConfig cfg = obs::telemetryConfigFromEnv();
  for (int i = 1; i + 1 < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--trace-out") {
      cfg.traceOutPath = argv[++i];
    } else if (flag == "--trace-summary") {
      cfg.traceSummaryPath = argv[++i];
    } else if (flag == "--metrics-out") {
      cfg.metricsOutPath = argv[++i];
    }
  }
  return std::make_unique<obs::TelemetrySession>(cfg);
}

ExperimentScale ExperimentScale::fromEnv() {
  ExperimentScale scale =
      fromSpec(envInt<std::int64_t>("RAHTM_NODES", 128),
               envInt<int>("RAHTM_CONC", 8),
               envInt<std::int64_t>("RAHTM_BYTES", 4096),
               envInt<int>("RAHTM_SIM_ITERS", 4));
  // RAHTM_SIM_FIDELITY=flow swaps the cycle sim for the flow-level
  // analytic estimate (DESIGN.md §12). Results-changing, so it is honored
  // only here — never in fromSpec, which regression checks use to re-run a
  // baseline's recorded configuration.
  if (const char* f = std::getenv("RAHTM_SIM_FIDELITY")) {
    const std::string v(f);
    if (v == "flow") {
      scale.sim.fidelity = simnet::SimFidelity::Flow;
    } else if (!v.empty() && v != "cycle") {
      throw ParseError("RAHTM_SIM_FIDELITY must be 'cycle' or 'flow'");
    }
  }
  return scale;
}

ExperimentScale ExperimentScale::fromSpec(std::int64_t nodes,
                                          int concentration,
                                          std::int64_t messageBytes,
                                          int simIterations) {
  ExperimentScale scale;
  switch (nodes) {
    case 32: scale.machine = torus32(); break;
    case 128: scale.machine = bgqPartition128(); break;
    case 512: scale.machine = bgqPartition512(); break;
    default:
      throw ParseError("RAHTM_NODES must be 32, 128 or 512");
  }
  scale.concentration = concentration;
  scale.simIterations = simIterations;
  scale.params.messageBytes = messageBytes;
  // BG/Q-like NIC: injection outruns a single link so network contention —
  // the effect RAHTM optimizes — is visible (DESIGN.md §1).
  scale.sim.injectionBandwidth = 4;
  // Simulator worker threads (RAHTM_SIM_THREADS, 0 = all cores). Safe to
  // honor even when re-running a baseline's recorded spec: the sharded
  // engine's results are bit-identical for every thread count.
  scale.sim.threads = exec::threadsFromEnv("RAHTM_SIM_THREADS");
  return scale;
}

std::vector<std::unique_ptr<TaskMapper>> paperRoster(
    const ExperimentScale& scale) {
  const std::size_t n = scale.machine.ndims();
  const std::string spec = canonicalSpec(n).substr(0, n);
  std::vector<std::unique_ptr<TaskMapper>> roster;
  roster.push_back(std::make_unique<DefaultMapper>());
  roster.push_back(std::make_unique<PermutationMapper>("T" + spec));
  roster.push_back(std::make_unique<PermutationMapper>(interleavedSpec(n)));
  roster.push_back(std::make_unique<HilbertMapper>());
  roster.push_back(std::make_unique<RubikMapper>(
      RubikMapper::autoFor(scale.ranks(), scale.machine, scale.concentration)));
  roster.push_back(std::make_unique<RahtmMapper>());
  return roster;
}

std::vector<MapperRun> runStudy(const Workload& workload,
                                const ExperimentScale& scale) {
  const CommGraph graph = workload.commGraph();
  std::vector<MapperRun> out;
  for (auto& mapper : paperRoster(scale)) {
    MapperRun run;
    run.mapper = mapper->name();
    Timer t;
    Mapping m;
    if (auto* rahtm = dynamic_cast<RahtmMapper*>(mapper.get())) {
      m = rahtm->mapWorkload(workload, scale.machine, scale.concentration);
    } else {
      m = mapper->map(graph, scale.machine, scale.concentration);
    }
    run.mapSeconds = t.seconds();
    const std::string err = m.validate(scale.machine, scale.concentration);
    RAHTM_REQUIRE(err.empty(), run.mapper + ": invalid mapping: " + err);
    run.commCycles = static_cast<double>(commCyclesPerIteration(
        workload, scale.machine, m, scale.sim, scale.simIterations));
    run.mcl = placementMcl(scale.machine, graph, m.nodeVector());
    run.hopBytes = hopBytes(graph, scale.machine, m.nodeVector());
    out.push_back(run);
  }
  return out;
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) {
    RAHTM_LOG(Warn) << "geomean: empty input, returning 0";
    return 0;
  }
  double logSum = 0;
  for (const double v : values) {
    if (!(v > 0)) {
      RAHTM_LOG(Warn) << "geomean: non-positive value " << v
                      << ", returning 0";
      return 0;
    }
    logSum += std::log(v);
  }
  return std::exp(logSum / static_cast<double>(values.size()));
}

void printRelativeTable(const std::string& title,
                        const std::vector<std::string>& benchmarkNames,
                        const std::vector<std::vector<MapperRun>>& runs,
                        double MapperRun::*metric) {
  std::cout << title << "\n";
  std::cout << std::left << std::setw(10) << "mapping";
  for (const std::string& b : benchmarkNames) {
    std::cout << std::right << std::setw(10) << b;
  }
  std::cout << std::right << std::setw(10) << "geomean" << "\n";

  const std::size_t mappers = runs.front().size();
  for (std::size_t mi = 0; mi < mappers; ++mi) {
    std::cout << std::left << std::setw(10) << runs.front()[mi].mapper;
    std::vector<double> ratios;
    for (const auto& benchRuns : runs) {
      const double base = benchRuns.front().*metric;
      const double v = benchRuns[mi].*metric;
      const double ratio = base > 0 ? v / base : 1.0;
      ratios.push_back(ratio);
      std::cout << std::right << std::setw(9) << std::fixed
                << std::setprecision(1) << 100.0 * ratio << "%";
    }
    std::cout << std::right << std::setw(9) << std::fixed
              << std::setprecision(1) << 100.0 * geomean(ratios) << "%\n";
    std::cout.unsetf(std::ios::fixed);
    std::cout << std::setprecision(6);
  }
}

}  // namespace rahtm::bench
