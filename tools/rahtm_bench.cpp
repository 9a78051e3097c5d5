/// \file rahtm_bench.cpp
/// Benchmark-ledger driver: runs named suites of the paper-reproduction
/// experiments (bench/suites.hpp) and emits canonical `BENCH_<suite>.json`
/// ledgers (obs/report.hpp), so the repo's own numbers are machine-readable
/// and diffable across commits.
///
/// Modes:
///   rahtm_bench --suites fig8,fig9 --out DIR
///       Run each suite at the environment scale (RAHTM_NODES/CONC/BYTES)
///       and write DIR/BENCH_<suite>.json.
///   rahtm_bench --baseline FILE --check [--candidate FILE]
///       Regression gate: compare a candidate ledger against a committed
///       baseline under per-metric relative thresholds; exit nonzero on any
///       regression or structural mismatch. Without --candidate the
///       baseline's suite is re-run at the baseline's recorded scale.
///   rahtm_bench --validate FILE
///       Parse FILE and check it against the ledger schema; exit nonzero
///       with the list of problems if invalid.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "bench/suites.hpp"
#include "common/cli.hpp"
#include "common/log.hpp"
#include "common/strings.hpp"
#include "exec/thread_pool.hpp"
#include "obs/json_reader.hpp"
#include "obs/mem.hpp"
#include "obs/postmortem.hpp"
#include "obs/report.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace rahtm;

const std::vector<std::string> kFlags = {
    "help", "verbose", "suites", "out", "baseline", "check", "candidate",
    "thresholds", "validate", "sim-threads", "sim-fidelity", "mem-report",
    "mem-budget-mb", "trace-out", "trace-summary", "metrics-out",
    "postmortem-dir"};

int usage(const char* argv0) {
  std::string suites;
  for (const std::string& s : bench::knownSuites()) {
    suites += suites.empty() ? s : (", " + s);
  }
  std::cerr
      << "usage: " << argv0 << " --suites S1,S2,... [--out DIR]\n"
      << "       " << argv0 << " --baseline FILE --check [--candidate FILE]\n"
      << "                  [--thresholds metric=rel,...] [--out DIR]\n"
      << "       " << argv0 << " --validate FILE\n"
      << "       [--sim-threads N] [--sim-fidelity cycle|flow]\n"
      << "       [--mem-report] [--mem-budget-mb N]\n"
      << "       [--trace-out FILE] [--trace-summary FILE] "
         "[--metrics-out FILE] [--postmortem-dir DIR] [--verbose]\n"
      << "\n"
      << "suites: " << suites << "\n"
      << "\n"
      << "Each suite writes BENCH_<suite>.json: a versioned ledger of the\n"
      << "suite's measured metrics (MCL, hop-bytes, simulated cycles,\n"
      << "mapping time) plus an environment fingerprint (git SHA, compiler,\n"
      << "scale, wall time, peak RSS). --check re-runs the baseline's suite\n"
      << "at the baseline's recorded scale, so it is reproducible whatever\n"
      << "the current RAHTM_NODES/CONC/BYTES say. Default thresholds: mcl\n"
      << "and hop_bytes 2%, comm/overall cycles 5%, map_seconds ungated;\n"
      << "override with --thresholds mcl=0.1,comm_cycles=0.2.\n"
      << "\n"
      << "--validate accepts both rahtm.bench.report/v1 ledgers and\n"
      << "rahtm.postmortem/v1 artifacts (dispatched on the 'schema' key).\n"
      << "--postmortem-dir installs the crash/stall post-mortem handlers\n"
      << "for the benchmark run itself (default RAHTM_POSTMORTEM_DIR).\n"
      << "--mem-budget-mb N enforces the accounted-memory budget\n"
      << "(overrides RAHTM_MEM_BUDGET_MB; warn at 80%, fail past 100%);\n"
      << "--mem-report prints the per-subsystem memory table to stderr\n"
      << "when the run finishes.\n";
  return 2;
}

obs::ThresholdMap thresholdsFromFlag(const std::string& spec) {
  obs::ThresholdMap thresholds = obs::defaultThresholds();
  if (spec.empty()) return thresholds;
  for (const std::string& part : split(spec, ',')) {
    const auto eq = part.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw ParseError("--thresholds: expected metric=rel, got '" + part + "'");
    }
    thresholds[part.substr(0, eq)] = parseDouble(part.substr(eq + 1));
  }
  return thresholds;
}

void writeLedger(const obs::RunReport& report, const std::string& dir) {
  const std::string path = dir + "/BENCH_" + report.suite + ".json";
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  report.writeJson(out);
  out.flush();
  if (!out) throw Error("write failed for " + path);
  std::cerr << "wrote " << path << " (" << report.records.size()
            << " records)\n";
}

int runValidate(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string content = ss.str();
  std::vector<std::string> problems;
  // Dispatch on the document's declared schema: ledgers, post-mortem
  // artifacts, and rahtm_serve NDJSON response streams share the one
  // --validate entry point. A response stream is detected from its first
  // line (one JSON document per line) and validated line by line.
  std::string kind = "ledger";
  bool ndjson = false;
  try {
    const obs::JsonValue head =
        obs::parseJson(content.substr(0, content.find('\n')));
    ndjson = head.stringOr("schema", "") == serve::kServeResponseSchema;
  } catch (...) {
    // Not a single-line document; the whole-file path reports the error.
  }
  if (ndjson) {
    kind = "serve response stream";
    std::istringstream lines(content);
    std::string line;
    int lineNo = 0;
    while (std::getline(lines, line)) {
      ++lineNo;
      if (line.empty()) continue;
      try {
        for (const std::string& p :
             serve::validateServeResponseJson(obs::parseJson(line))) {
          problems.push_back("line " + std::to_string(lineNo) + ": " + p);
        }
      } catch (const std::exception& e) {
        problems.push_back("line " + std::to_string(lineNo) + ": " + e.what());
      }
    }
  } else {
    try {
      const obs::JsonValue doc = obs::parseJson(content);
      if (doc.stringOr("schema", "") == obs::kPostmortemSchema) {
        kind = "postmortem";
        problems = obs::validatePostmortemJson(doc);
      } else {
        problems = obs::validateReportJson(doc);
      }
    } catch (const std::exception& e) {
      problems.push_back(e.what());
    }
  }
  if (problems.empty()) {
    std::cout << path << ": schema-valid " << kind << "\n";
    return 0;
  }
  std::cerr << path << ": INVALID " << kind << ":\n";
  for (const std::string& p : problems) std::cerr << "  " << p << "\n";
  return 1;
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
    if (args.has("help")) return usage(argv[0]);
    if (args.getBool("verbose")) setLogLevel(LogLevel::Info);
    const auto telemetry = bench::telemetryFromCli(argc, argv);

    if (args.has("validate")) {
      return runValidate(args.getString("validate", ""));
    }

    // Benchmark runs are exactly the long solves the forensics layer is
    // for: install the post-mortem handlers before any suite work.
    std::string pmDir = args.getString("postmortem-dir", "");
    if (pmDir.empty()) pmDir = obs::postmortemDirFromEnv();
    obs::installPostmortem(pmDir);

    // CLI override for the accounted-memory budget (otherwise the
    // registry picked RAHTM_MEM_BUDGET_MB up at first use).
    if (args.has("mem-budget-mb")) {
      obs::MemRegistry::instance().setBudgetMb(
          args.getInt("mem-budget-mb", 0), "--mem-budget-mb");
    }
    const bool memReport = args.getBool("mem-report");

    const std::string outDir = args.getString("out", ".");

    if (args.has("baseline")) {
      const obs::RunReport baseline =
          obs::readReportFile(args.getString("baseline", ""));
      obs::RunReport candidate;
      if (args.has("candidate")) {
        candidate = obs::readReportFile(args.getString("candidate", ""));
      } else {
        std::cerr << "re-running suite '" << baseline.suite
                  << "' at the baseline's scale (" << baseline.env.nodes
                  << " nodes, concentration " << baseline.env.concentration
                  << ")\n";
        candidate = bench::runSuite(
            baseline.suite, bench::scaleFromFingerprint(baseline.env));
        if (args.has("out")) writeLedger(candidate, outDir);
      }
      const obs::CheckResult result = obs::compareReports(
          baseline, candidate,
          thresholdsFromFlag(args.getString("thresholds", "")));
      obs::printCheckResult(std::cout, result);
      if (memReport) obs::MemRegistry::instance().writeReport(std::cerr);
      if (!args.getBool("check")) {
        // Comparison requested without gating: always exit 0.
        return 0;
      }
      return result.pass() ? 0 : 1;
    }

    if (!args.has("suites")) return usage(argv[0]);
    bench::ExperimentScale scale = bench::ExperimentScale::fromEnv();
    // CLI overrides for the simulator knobs (fall back to RAHTM_SIM_THREADS
    // / RAHTM_SIM_FIDELITY, applied in fromEnv). Thread count never changes
    // results; fidelity does, and the fingerprint-scale re-run of --check
    // deliberately ignores both env and flag for it.
    if (args.has("sim-threads")) {
      scale.sim.threads =
          exec::parseThreads(args.getString("sim-threads", ""), "--sim-threads");
    }
    if (args.has("sim-fidelity")) {
      const std::string fidelity = args.getString("sim-fidelity", "cycle");
      if (fidelity == "flow") {
        scale.sim.fidelity = simnet::SimFidelity::Flow;
      } else if (fidelity != "cycle") {
        throw ParseError("--sim-fidelity must be 'cycle' or 'flow'");
      } else {
        scale.sim.fidelity = simnet::SimFidelity::Cycle;
      }
    }
    for (const std::string& suite :
         split(args.getString("suites", ""), ',')) {
      std::cerr << "[rahtm_bench] running suite '" << suite << "' ("
                << scale.ranks() << " ranks on " << scale.machine.describe()
                << ")\n";
      writeLedger(bench::runSuite(suite, scale), outDir);
    }
    if (memReport) obs::MemRegistry::instance().writeReport(std::cerr);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
