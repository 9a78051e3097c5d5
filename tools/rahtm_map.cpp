/// \file rahtm_map.cpp
/// The offline mapping tool the paper describes (§I, §V-B): take a
/// communication profile (or a named synthetic workload), a machine
/// description and a concentration factor; emit a BG/Q-style mapfile that
/// the MPI runtime consumes on every subsequent run.
///
/// Usage:
///   rahtm_map --machine 4x4x4x2 --concentration 8 --benchmark CG
///             --out cg.map [--mapper rahtm|abcdet|hilbert|rht|greedy|random]
///   rahtm_map --machine 4x4x4x2 --concentration 8 --profile run.prof
///             --grid 32x32 --out app.map
///
/// The profile format is the library's IPM-lite text format (see
/// profile/profile.hpp); --grid names the logical rank-grid geometry used
/// by the clustering tile search.

#include <fstream>
#include <iostream>
#include <limits>
#include <optional>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "exec/thread_pool.hpp"
#include "mapping/mapfile.hpp"
#include "obs/mem.hpp"
#include "obs/postmortem.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "profile/profile.hpp"
#include "serve/service.hpp"
#include "simnet/simulator.hpp"

namespace {

using namespace rahtm;

/// Flag --\p name as a T, or \p fallback when absent. Malformed text or a
/// value T cannot hold is a ParseError naming the flag, never a wrapped
/// value.
template <typename T>
T intFlag(const CliArgs& args, const std::string& name, T fallback) {
  if (!args.has(name)) return fallback;
  const std::string text = args.getString(name, "");
  std::int64_t value = 0;
  try {
    value = parseInt(text);
  } catch (const ParseError& e) {
    throw ParseError("--" + name + ": " + e.what());
  }
  if (value < std::numeric_limits<T>::min() ||
      value > std::numeric_limits<T>::max()) {
    throw ParseError("--" + name + " must be an integer in [" +
                     std::to_string(std::numeric_limits<T>::min()) + ", " +
                     std::to_string(std::numeric_limits<T>::max()) +
                     "], got " + text);
  }
  return static_cast<T>(value);
}

std::string flagName(const std::string& member) { return "--" + member; }

const std::vector<std::string> kFlags = {
    "help", "machine", "concentration", "benchmark", "profile", "grid", "out",
    "mapper", "bytes", "beam", "leaf-milp", "no-merge", "no-refine",
    "verbose", "threads", "trace-out", "trace-summary", "metrics-out",
    "link-heatmap", "postmortem-dir", "sim-threads", "sim-fidelity",
    "watchdog-sec", "watchdog-phases", "watchdog-action", "no-watchdog",
    "mem-report", "mem-budget-mb"};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --machine AxBxC... --concentration N\n"
      << "          (--benchmark BT|SP|CG | --profile FILE [--grid AxB])\n"
      << "          [--out mapfile] [--mapper rahtm|abcdet|hilbert|rht|"
         "greedy|rcb|random]\n"
      << "          [--bytes N] [--beam N] [--leaf-milp N] [--no-merge] "
         "[--no-refine] [--verbose]\n"
      << "          [--threads N] [--trace-out FILE] [--trace-summary FILE] "
         "[--metrics-out FILE]\n"
      << "          [--link-heatmap FILE] [--postmortem-dir DIR]\n"
      << "          [--sim-threads N] [--sim-fidelity cycle|flow]\n"
      << "          [--watchdog-sec S] [--watchdog-phases name=S,...]\n"
      << "          [--watchdog-action log|dump|abort] [--no-watchdog]\n"
      << "          [--mem-report] [--mem-budget-mb N]\n"
      << "\n"
      << "--threads N parallelizes the RAHTM compute phases over N threads\n"
      << "(0 = all hardware threads, at most " << exec::kMaxThreads
      << "; the RAHTM_THREADS environment\n"
      << "variable is the fallback). The produced mapping is bit-identical\n"
      << "for every thread count.\n"
      << "\n"
      << "Telemetry: --trace-out writes a Chrome trace_event JSON (load it\n"
      << "in Perfetto / chrome://tracing), --metrics-out a counter/histogram\n"
      << "snapshot. When telemetry is on, the finished mapping is also run\n"
      << "through the network simulator so the metrics include measured\n"
      << "per-link load. The RAHTM_TRACE_OUT / RAHTM_TRACE_SUMMARY /\n"
      << "RAHTM_METRICS_OUT environment variables are fallbacks for the\n"
      << "flags.\n"
      << "\n"
      << "--link-heatmap FILE simulates the finished mapping (even with\n"
      << "telemetry off) and writes the per-channel flit-load matrix plus a\n"
      << "time-bucketed queue-occupancy series as JSON, for plotting where\n"
      << "the mapping actually puts traffic.\n"
      << "\n"
      << "--sim-threads N parallelizes the cycle-level simulator (0 = all\n"
      << "hardware threads, at most " << exec::kMaxThreads
      << "; results are bit-identical for\n"
      << "every thread count). --sim-fidelity flow swaps the cycle sim for\n"
      << "the flow-level analytic estimate (fast screening; cycles/MCL are\n"
      << "estimates, the occupancy time series is empty).\n"
      << "\n"
      << "Forensics (always on): a crash, std::terminate, or a phase that\n"
      << "stalls past its watchdog deadline leaves a rahtm.postmortem/v1\n"
      << "JSON artifact (flight-recorder rings, heartbeats, metrics) in\n"
      << "--postmortem-dir (default RAHTM_POSTMORTEM_DIR or '.'). The\n"
      << "RAHTM_WATCHDOG_* environment variables are fallbacks for the\n"
      << "watchdog flags; RAHTM_RECORDER/RAHTM_HEARTBEATS=off disable the\n"
      << "recorder/heartbeats.\n"
      << "\n"
      << "Memory: --mem-budget-mb N enforces the accounted-memory budget\n"
      << "(overrides RAHTM_MEM_BUDGET_MB; warn at 80%, fail past 100% —\n"
      << "see obs/mem.hpp); --mem-report prints the per-subsystem peak\n"
      << "table to stderr before exit.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Pin the memory registry's RSS baseline before any subsystem (recorder
    // rings, telemetry buffers) allocates: rss_coverage measures growth
    // past this point.
    obs::MemRegistry::instance();

    std::optional<CliArgs> parsed;
    try {
      parsed.emplace(argc, argv, kFlags);
    } catch (const ParseError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return usage(argv[0]);
    }
    const CliArgs& args = *parsed;
    if (args.has("help") || !args.has("machine")) return usage(argv[0]);
    if (args.getBool("verbose")) setLogLevel(LogLevel::Info);

    // ---- Telemetry session (flags override the environment) --------------
    obs::TelemetryConfig tele = obs::telemetryConfigFromEnv();
    if (args.has("trace-out")) {
      tele.traceOutPath = args.getString("trace-out", "");
    }
    if (args.has("trace-summary")) {
      tele.traceSummaryPath = args.getString("trace-summary", "");
    }
    if (args.has("metrics-out")) {
      tele.metricsOutPath = args.getString("metrics-out", "");
    }
    obs::TelemetrySession telemetry(tele);

    // ---- Run forensics (always on; see obs/postmortem.hpp) ----------------
    std::string pmDir = args.getString("postmortem-dir", "");
    if (pmDir.empty()) pmDir = obs::postmortemDirFromEnv();
    if (obs::metrics() == nullptr) {
      // Post-mortem artifacts embed a metrics snapshot; give the process a
      // registry even when --metrics-out is off.
      static obs::MetricsRegistry forensicsMetrics;
      obs::registerStandardMetrics(forensicsMetrics);
      obs::setMetrics(&forensicsMetrics);
    }
    obs::installPostmortem(pmDir);
    obs::WatchdogConfig wd = obs::watchdogConfigFromEnv();
    wd.postmortemDir = pmDir;
    if (args.has("watchdog-sec")) {
      wd.defaultDeadlineSec =
          args.getDouble("watchdog-sec", wd.defaultDeadlineSec);
    }
    if (args.has("watchdog-phases")) {
      wd.phaseDeadlines =
          obs::parsePhaseDeadlines(args.getString("watchdog-phases", ""));
    }
    if (args.has("watchdog-action")) {
      const std::string action = args.getString("watchdog-action", "dump");
      if (action == "log") wd.action = obs::WatchdogAction::Log;
      else if (action == "dump") wd.action = obs::WatchdogAction::Dump;
      else if (action == "abort") wd.action = obs::WatchdogAction::Abort;
      else {
        std::cerr << "unknown --watchdog-action '" << action << "'\n";
        return usage(argv[0]);
      }
    }
    if (args.getBool("no-watchdog")) wd.enabled = false;
    obs::Watchdog watchdog(wd);
    watchdog.start();

    // ---- Memory accounting (always on; see obs/mem.hpp) -------------------
    if (args.has("mem-budget-mb")) {
      obs::MemRegistry::instance().setBudgetMb(
          args.getInt("mem-budget-mb", 0), "--mem-budget-mb");
    }
    const bool memReport = args.getBool("mem-report");

    // ---- Request: every number is checked here, before any work ---------
    // Orchestration (input resolution, mapper ladder, solve, validation,
    // quality metrics) lives in serve::MapService; this tool is a thin
    // wrapper that keeps the historical flags and stderr output.
    serve::MapRequest req;
    req.machine =
        serve::parseShapeSpec(args.getString("machine", ""), "--machine");
    req.concentration = intFlag(args, "concentration", 1);
    req.benchmark = args.getString("benchmark", "CG");
    req.messageBytes = intFlag<std::int64_t>(args, "bytes", 4096);
    req.mapper = args.getString("mapper", "rahtm");
    const std::int64_t beam = args.getInt("beam", 64);
    if (beam < 1 || beam > std::numeric_limits<int>::max()) {
      std::cerr << "--beam must be a positive int\n";
      return usage(argv[0]);
    }
    req.beamWidth = static_cast<int>(beam);
    req.enableMerge = !args.getBool("no-merge");
    req.finalRefinement = !args.getBool("no-refine");
    // The offline tool defaults to the paper's exact MILP on every leaf
    // cube it can reach (the library default is tuned for test speed).
    req.leafMilpVerts = intFlag(args, "leaf-milp", 8);
    req.threads = args.has("threads")
                      ? exec::parseThreads(args.getString("threads", ""),
                                           "--threads")
                      : exec::threadsFromEnv();
    serve::checkMapRequest(req, flagName);

    const Torus machine = Torus::torus(req.machine);
    const int concentration = req.concentration;
    const auto ranks =
        static_cast<RankId>(machine.numNodes() * concentration);

    // Error-path telemetry: an exception or early return must still leave
    // the trace/metrics files and any captured link heatmap behind, not
    // just the post-mortem artifact.
    simnet::LinkLoadCapture capture;
    const std::string heatmapPath = args.getString("link-heatmap", "");
    struct ErrorFlushGuard {
      obs::TelemetrySession& telemetry;
      const Torus& machine;
      const simnet::LinkLoadCapture& capture;
      const std::string& heatmapPath;
      bool armed = true;
      ~ErrorFlushGuard() {
        if (!armed) return;
        try {
          telemetry.flush();
          if (telemetry.enabled()) {
            std::cerr << "  (flushed telemetry artifacts on error path)\n";
          }
          if (!heatmapPath.empty() && !capture.channels.empty()) {
            std::ofstream heat(heatmapPath);
            if (heat) simnet::writeLinkHeatmapJson(heat, machine, capture);
          }
        } catch (...) {
          // Salvaging artifacts must never mask the original error.
        }
      }
    } flushGuard{telemetry, machine, capture, heatmapPath};

    // The simulator settings are checked here, with the other flags, so a
    // bad value fails before the solve.
    simnet::SimConfig sim;
    sim.injectionBandwidth = 8;
    if (args.has("sim-threads")) {
      sim.threads =
          exec::parseThreads(args.getString("sim-threads", ""), "--sim-threads");
    }
    const std::string fidelity = args.getString("sim-fidelity", "cycle");
    if (fidelity == "flow") {
      sim.fidelity = simnet::SimFidelity::Flow;
    } else if (fidelity != "cycle") {
      std::cerr << "--sim-fidelity must be 'cycle' or 'flow'\n";
      return usage(argv[0]);
    }

    // ---- Input: profile file or named synthetic workload ------------------
    serve::MapService service;  // uncached: identical to one-shot solves
    serve::RequestInput input;
    if (args.has("profile")) {
      std::ifstream in(args.getString("profile", ""));
      if (!in) {
        std::cerr << "cannot open profile file\n";
        return 1;
      }
      const Profile p = readProfile(in);
      req.hasGraph = true;
      input.graph = p.matrix;
      if (args.has("grid")) {
        input.grid =
            serve::parseShapeSpec(args.getString("grid", ""), "--grid");
      }
      if (input.graph.numRanks() != ranks) {
        std::cerr << "profile has " << input.graph.numRanks()
                  << " ranks; machine*"
                  << "concentration = " << ranks << "\n";
        return 1;
      }
    } else {
      input = service.buildInput(req);
    }
    std::vector<simnet::Phase> simStages = std::move(input.simStages);
    const bool simulate = telemetry.enabled() || !heatmapPath.empty();
    if (simulate && simStages.empty()) {
      // Profile input carries no per-stage structure: simulate the
      // aggregate communication matrix as one phase.
      simnet::Phase all;
      for (const Flow& f : input.graph.flows()) {
        all.push_back({f.src, f.dst, static_cast<std::int64_t>(f.bytes)});
      }
      simStages.push_back(std::move(all));
    }

    // ---- Solve ------------------------------------------------------------
    const std::string which = req.mapper;
    const serve::MapResponse resp = service.handleWithInput(req, input);
    if (!resp.ok) {
      if (resp.error == "unknown mapper '" + which + "'") {
        std::cerr << resp.error << "\n";
        return usage(argv[0]);
      }
      if (resp.error.rfind("invalid mapping: ", 0) == 0) {
        std::cerr << "internal error: " << resp.error << "\n";
        return 1;
      }
      // Any other solve failure: surface it like the historical uncaught
      // exception (the flush guard salvages telemetry during unwinding).
      throw Error(resp.error);
    }
    const Mapping& mapping = resp.mapping;

    // ---- Report + mapfile --------------------------------------------------
    std::cerr << which << ": mapped " << resp.ranks << " ranks (" << resp.flows
              << " flows) onto " << machine.describe() << ", concentration "
              << concentration << "\n";
    std::cerr << "  MCL (MAR model): " << resp.mcl
              << ", hop-bytes: " << resp.hopBytes << "\n";

    const std::string outPath = args.getString("out", "rahtm.map");
    std::ofstream out(outPath);
    if (!out) {
      std::cerr << "cannot write " << outPath << "\n";
      return 1;
    }
    writeMapfile(out, mapping, machine);
    std::cerr << "  wrote " << outPath << "\n";

    // ---- Telemetry: measure the mapping in the simulator, dump files ------
    if (simulate) {
      if (!heatmapPath.empty()) sim.linkCapture = &capture;
      const simnet::PhaseResult r =
          simnet::simulateIteration(machine, mapping, simStages, sim);
      std::cerr << "  simulated iteration (" << fidelity << "): " << r.cycles
                << " cycles, max " << r.maxChannelFlits
                << " flits on the busiest link\n";
      if (!heatmapPath.empty()) {
        std::ofstream heat(heatmapPath);
        if (!heat) {
          std::cerr << "cannot write " << heatmapPath << "\n";
          return 1;
        }
        simnet::writeLinkHeatmapJson(heat, machine, capture);
        std::cerr << "  wrote " << heatmapPath << " ("
                  << capture.channels.size() << " channels, "
                  << capture.samples.size() << " occupancy samples)\n";
      }
      telemetry.flush();
      if (!tele.traceOutPath.empty()) {
        std::cerr << "  wrote " << tele.traceOutPath << "\n";
      }
      if (!tele.metricsOutPath.empty()) {
        std::cerr << "  wrote " << tele.metricsOutPath << "\n";
      }
    }
    if (memReport) {
      obs::MemRegistry::instance().sampleRss();
      obs::MemRegistry::instance().writeReport(std::cerr);
    }
    flushGuard.armed = false;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
