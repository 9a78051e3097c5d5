#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/json_reader.hpp"
#include "obs/mem.hpp"
#include "obs/process.hpp"

// Build provenance is injected by CMake (see src/obs/CMakeLists.txt); the
// fallbacks keep non-CMake builds compiling.
#ifndef RAHTM_GIT_SHA
#define RAHTM_GIT_SHA "unknown"
#endif
#ifndef RAHTM_BUILD_TYPE
#define RAHTM_BUILD_TYPE "unknown"
#endif

namespace rahtm::obs {

namespace {

std::string osName() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#else
  return "unknown";
#endif
}

void appendProblem(std::vector<std::string>& problems, const std::string& p) {
  problems.push_back(p);
}

}  // namespace

EnvFingerprint currentEnvFingerprint() {
  EnvFingerprint env;
  env.gitSha = RAHTM_GIT_SHA;
#if defined(__VERSION__)
  env.compiler = __VERSION__;
#endif
  env.buildType = RAHTM_BUILD_TYPE;
  env.os = osName();
  env.wallSeconds = processWallSeconds();
  env.peakRssBytes = peakRssBytes();
  return env;
}

MemSection currentMemSection() {
  MemSection mem;
  mem.present = true;
  const MemRegistry& reg = MemRegistry::instance();
  for (int i = 0; i < kMemAccountCount; ++i) {
    const auto id = static_cast<MemAccountId>(i);
    mem.accounts.emplace_back(memAccountName(id), reg.peakBytes(id));
  }
  mem.accountedPeakBytes = reg.totalPeakBytes();
  mem.baselineRssBytes = reg.baselineRssBytes();
  mem.peakRssBytes = peakRssBytes();
  const std::int64_t growth = mem.peakRssBytes - mem.baselineRssBytes;
  mem.rssCoverage = growth > 0 ? static_cast<double>(mem.accountedPeakBytes) /
                                     static_cast<double>(growth)
                               : 0.0;
  return mem;
}

bool RunRecord::has(const std::string& name) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return true;
  }
  return false;
}

double RunRecord::metricOr(const std::string& name, double fallback) const {
  for (const auto& [k, v] : metrics) {
    if (k == name) return v;
  }
  return fallback;
}

const RunRecord* RunReport::find(const std::string& benchmark,
                                 const std::string& mapper) const {
  for (const RunRecord& r : records) {
    if (r.benchmark == benchmark && r.mapper == mapper) return &r;
  }
  return nullptr;
}

void RunReport::writeJson(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": " << jsonString(kReportSchema) << ",\n";
  os << "  \"suite\": " << jsonString(suite) << ",\n";
  os << "  \"environment\": {\n";
  os << "    \"git_sha\": " << jsonString(env.gitSha) << ",\n";
  os << "    \"compiler\": " << jsonString(env.compiler) << ",\n";
  os << "    \"build_type\": " << jsonString(env.buildType) << ",\n";
  os << "    \"os\": " << jsonString(env.os) << ",\n";
  os << "    \"nodes\": " << jsonInt(env.nodes) << ",\n";
  os << "    \"concentration\": " << jsonInt(env.concentration) << ",\n";
  os << "    \"message_bytes\": " << jsonInt(env.messageBytes) << ",\n";
  os << "    \"sim_iterations\": " << jsonInt(env.simIterations) << ",\n";
  os << "    \"threads\": " << jsonInt(env.threads) << ",\n";
  os << "    \"wall_seconds\": " << jsonDouble(env.wallSeconds) << ",\n";
  os << "    \"peak_rss_bytes\": " << jsonInt(env.peakRssBytes) << "\n";
  os << "  },\n";
  if (mem.present) {
    os << "  \"mem\": {\n";
    os << "    \"accounts\": {";
    for (std::size_t i = 0; i < mem.accounts.size(); ++i) {
      if (i != 0) os << ", ";
      os << jsonString(mem.accounts[i].first) << ": "
         << jsonInt(mem.accounts[i].second);
    }
    os << "},\n";
    os << "    \"accounted_peak_bytes\": " << jsonInt(mem.accountedPeakBytes)
       << ",\n";
    os << "    \"baseline_rss_bytes\": " << jsonInt(mem.baselineRssBytes)
       << ",\n";
    os << "    \"peak_rss_bytes\": " << jsonInt(mem.peakRssBytes) << ",\n";
    os << "    \"rss_coverage\": " << jsonDouble(mem.rssCoverage) << "\n";
    os << "  },\n";
  }
  os << "  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"benchmark\": " << jsonString(r.benchmark)
       << ", \"mapper\": " << jsonString(r.mapper) << ", \"metrics\": {";
    for (std::size_t m = 0; m < r.metrics.size(); ++m) {
      if (m != 0) os << ", ";
      os << jsonString(r.metrics[m].first) << ": "
         << jsonDouble(r.metrics[m].second);
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
}

std::vector<std::string> validateReportJson(const JsonValue& doc) {
  std::vector<std::string> problems;
  if (!doc.isObject()) {
    appendProblem(problems, "document is not a JSON object");
    return problems;
  }
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->isString()) {
    appendProblem(problems, "missing string key 'schema'");
  } else if (schema->str != kReportSchema) {
    appendProblem(problems, "unknown schema '" + schema->str + "' (expected " +
                                std::string(kReportSchema) + ")");
  }
  const JsonValue* suite = doc.find("suite");
  if (suite == nullptr || !suite->isString() || suite->str.empty()) {
    appendProblem(problems, "missing non-empty string key 'suite'");
  }
  const JsonValue* envv = doc.find("environment");
  if (envv == nullptr || !envv->isObject()) {
    appendProblem(problems, "missing object key 'environment'");
  } else {
    for (const char* key : {"git_sha", "compiler", "build_type", "os"}) {
      const JsonValue* v = envv->find(key);
      if (v == nullptr || !v->isString()) {
        appendProblem(problems,
                      std::string("environment: missing string '") + key + "'");
      }
    }
    for (const char* key :
         {"nodes", "concentration", "message_bytes", "sim_iterations",
          "threads", "wall_seconds", "peak_rss_bytes"}) {
      const JsonValue* v = envv->find(key);
      if (v == nullptr || !v->isNumber()) {
        appendProblem(problems,
                      std::string("environment: missing number '") + key + "'");
      }
    }
  }
  // "mem" is optional (pre-accounting ledgers lack it) but must be
  // well-formed when present.
  const JsonValue* memv = doc.find("mem");
  if (memv != nullptr) {
    if (!memv->isObject()) {
      appendProblem(problems, "'mem' is not an object");
    } else {
      const JsonValue* accounts = memv->find("accounts");
      if (accounts == nullptr || !accounts->isObject()) {
        appendProblem(problems, "mem: missing object 'accounts'");
      } else {
        for (const auto& [name, v] : accounts->object) {
          if (!v.isNumber()) {
            appendProblem(problems,
                          "mem.accounts: '" + name + "' is not a number");
          }
        }
      }
      for (const char* key : {"accounted_peak_bytes", "baseline_rss_bytes",
                              "peak_rss_bytes", "rss_coverage"}) {
        const JsonValue* v = memv->find(key);
        if (v == nullptr || !v->isNumber()) {
          appendProblem(problems,
                        std::string("mem: missing number '") + key + "'");
        }
      }
    }
  }
  const JsonValue* records = doc.find("records");
  if (records == nullptr || !records->isArray()) {
    appendProblem(problems, "missing array key 'records'");
    return problems;
  }
  for (std::size_t i = 0; i < records->array.size(); ++i) {
    const JsonValue& r = records->array[i];
    const std::string where = "records[" + std::to_string(i) + "]";
    if (!r.isObject()) {
      appendProblem(problems, where + ": not an object");
      continue;
    }
    for (const char* key : {"benchmark", "mapper"}) {
      const JsonValue* v = r.find(key);
      if (v == nullptr || !v->isString()) {
        appendProblem(problems,
                      where + ": missing string '" + std::string(key) + "'");
      }
    }
    const JsonValue* metrics = r.find("metrics");
    if (metrics == nullptr || !metrics->isObject()) {
      appendProblem(problems, where + ": missing object 'metrics'");
      continue;
    }
    for (const auto& [name, value] : metrics->object) {
      if (!value.isNumber()) {
        appendProblem(problems,
                      where + ": metric '" + name + "' is not a number");
      }
    }
  }
  return problems;
}

RunReport readReport(std::istream& in) {
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue doc = parseJson(ss.str());
  const std::vector<std::string> problems = validateReportJson(doc);
  if (!problems.empty()) {
    std::string what = "ledger failed schema validation:";
    for (const std::string& p : problems) what += "\n  " + p;
    throw ParseError(what);
  }

  RunReport report;
  report.suite = doc.at("suite").str;
  const JsonValue& envv = doc.at("environment");
  report.env.gitSha = envv.at("git_sha").str;
  report.env.compiler = envv.at("compiler").str;
  report.env.buildType = envv.at("build_type").str;
  report.env.os = envv.at("os").str;
  report.env.nodes = static_cast<std::int64_t>(envv.at("nodes").number);
  report.env.concentration =
      static_cast<std::int64_t>(envv.at("concentration").number);
  report.env.messageBytes =
      static_cast<std::int64_t>(envv.at("message_bytes").number);
  report.env.simIterations =
      static_cast<std::int64_t>(envv.at("sim_iterations").number);
  report.env.threads = static_cast<std::int64_t>(envv.at("threads").number);
  report.env.wallSeconds = envv.at("wall_seconds").number;
  report.env.peakRssBytes =
      static_cast<std::int64_t>(envv.at("peak_rss_bytes").number);
  if (const JsonValue* memv = doc.find("mem")) {
    report.mem.present = true;
    for (const auto& [name, v] : memv->at("accounts").object) {
      report.mem.accounts.emplace_back(name,
                                       static_cast<std::int64_t>(v.number));
    }
    report.mem.accountedPeakBytes =
        static_cast<std::int64_t>(memv->at("accounted_peak_bytes").number);
    report.mem.baselineRssBytes =
        static_cast<std::int64_t>(memv->at("baseline_rss_bytes").number);
    report.mem.peakRssBytes =
        static_cast<std::int64_t>(memv->at("peak_rss_bytes").number);
    report.mem.rssCoverage = memv->at("rss_coverage").number;
  }
  for (const JsonValue& r : doc.at("records").array) {
    RunRecord record;
    record.benchmark = r.at("benchmark").str;
    record.mapper = r.at("mapper").str;
    for (const auto& [name, value] : r.at("metrics").object) {
      record.add(name, value.number);
    }
    report.records.push_back(std::move(record));
  }
  return report;
}

RunReport readReportFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("ledger: cannot open " + path);
  return readReport(in);
}

ThresholdMap defaultThresholds() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {"mcl", 0.02},
      {"hop_bytes", 0.02},
      {"comm_cycles", 0.05},
      {"overall_cycles", 0.05},
      // Wall time and derived throughput are hardware-dependent noise:
      // reported, never gated.
      {"map_seconds", inf},
      {"refine_seconds", inf},
      {"anneal_seconds", inf},
      {"swaps_per_sec", inf},
      {"probes_per_sec", inf},
      {"moves_per_sec", inf},
      // Search-effort counters (probe/commit/sweep counts) shift with any
      // legitimate algorithm tweak: reported, never gated.
      {"objective_before", inf},
      {"swaps", inf},
      {"passes", inf},
      {"probes", inf},
      {"commits", inf},
      {"dense_sweeps", inf},
      {"iterations", inf},
      // Forensics overhead gate (bench/suites.cpp obs_overhead): the
      // enabled/disabled ratio is gated at 2%; the raw wall times backing
      // it are noise like any other timing.
      {"overhead_ratio", 0.02},
      {"forensics_on_seconds", inf},
      {"forensics_off_seconds", inf},
      // Memory gates. peak_rss_mb is the synthetic per-suite column derived
      // from the environment fingerprint (works against pre-`mem` baselines
      // too); the generous 25% absorbs allocator/host noise while still
      // catching gross regressions. The per-account *_peak_mb columns in
      // mem_micro are deterministic accounted bytes, gated tighter; the
      // accounting overhead ratio carries the same 2% budget as forensics.
      {"peak_rss_mb", 0.25},
      {"route_table_peak_mb", 0.05},
      {"flow_incidence_peak_mb", 0.05},
      {"simnet_peak_mb", 0.05},
      {"lp_peak_mb", 0.05},
      {"mapper_peak_mb", 0.05},
      {"obs_peak_mb", 0.05},
      {"accounted_peak_mb", 0.05},
      {"rss_coverage", inf},
      {"mem_overhead_ratio", 0.02},
      {"mem_on_seconds", inf},
      {"mem_off_seconds", inf},
      // Simulator gate (bench/suites.cpp simnet_micro). The mismatch
      // counters have committed baselines of 0, so any nonzero value is an
      // unbounded relative regression — exactly the intended hard failure.
      // The flow-mode error ratios are deterministic at a fixed scale;
      // the 10% headroom only absorbs intentional estimator retuning.
      {"determinism_mismatches", 0.0},
      {"flow_conservation_mismatches", 0.0},
      {"flow_cycles_rel_err", 0.10},
      {"flow_mcl_rel_err", 0.10},
      {"sim_serial_seconds", inf},
      {"sim_threaded_seconds", inf},
      {"sim_speedup", inf},
      {"flow_seconds", inf},
      {"flow_speedup_vs_cycle", inf},
      // Serve suite (bench/suites_serve.cpp). The correctness counters have
      // committed baselines of 0 (served-vs-one-shot mapping divergence,
      // cache-warm requests that still rebuilt artifacts): any nonzero is a
      // hard failure. Latency/throughput and the cache traffic counters
      // depend on the host and on which serving thread takes which request:
      // reported, never gated.
      {"served_determinism_mismatches", 0.0},
      {"warm_route_misses", 0.0},
      {"warm_incidence_misses", 0.0},
      {"requests_per_sec", inf},
      {"latency_p50_sec", inf},
      {"latency_p95_sec", inf},
      {"latency_p99_sec", inf},
      {"queue_sec", inf},
      {"solve_sec", inf},
      {"cache_route_hits", inf},
      {"cache_route_misses", inf},
      {"cache_incidence_hits", inf},
      {"cache_incidence_misses", inf},
      {"cache_bytes", inf},
      // Route-table suite (bench/suites_route.cpp). The parity counter has
      // a committed baseline of 0: a table route diverging from the
      // uniform-minimal enumeration is a hard failure. Entries and bytes of the
      // 5120-node table are deterministic: entries may not grow at all,
      // bytes only by allocator-capacity noise. The solve's route_table
      // peak and the build time are reported, never gated.
      {"table_parity_mismatches", 0.0},
      {"table_entries", 0.0},
      {"table_mb", 0.05},
      {"table_build_seconds", inf},
      {"solve_route_table_peak_mb", inf},
  };
}

bool CheckResult::pass() const {
  return problems.empty() && regressions() == 0;
}

std::size_t CheckResult::regressions() const {
  std::size_t n = 0;
  for (const MetricCheck& c : checks) n += c.regression ? 1 : 0;
  return n;
}

CheckResult compareReports(const RunReport& baseline,
                           const RunReport& candidate,
                           const ThresholdMap& thresholds) {
  CheckResult result;
  if (baseline.suite != candidate.suite) {
    appendProblem(result.problems, "suite mismatch: baseline '" +
                                       baseline.suite + "' vs candidate '" +
                                       candidate.suite + "'");
  }
  // The scale half of the fingerprint must agree or the numbers are not
  // comparable at all. Build/host fields are informational.
  const auto scaleField = [&](const char* name, std::int64_t b,
                              std::int64_t c) {
    if (b != c) {
      appendProblem(result.problems,
                    std::string("environment mismatch: ") + name + " " +
                        std::to_string(b) + " vs " + std::to_string(c));
    }
  };
  scaleField("nodes", baseline.env.nodes, candidate.env.nodes);
  scaleField("concentration", baseline.env.concentration,
             candidate.env.concentration);
  scaleField("message_bytes", baseline.env.messageBytes,
             candidate.env.messageBytes);
  scaleField("sim_iterations", baseline.env.simIterations,
             candidate.env.simIterations);

  // Synthetic per-suite memory column: gate the process peak RSS recorded
  // in the environment fingerprint. This works against baselines that
  // predate the `mem` section — VmHWM has been in every fingerprint since
  // the ledger existed. Skipped when either side reads 0 (no procfs).
  if (baseline.env.peakRssBytes > 0 && candidate.env.peakRssBytes > 0) {
    MetricCheck check;
    check.benchmark = "(suite)";
    check.mapper = "(process)";
    check.metric = "peak_rss_mb";
    check.baseline =
        static_cast<double>(baseline.env.peakRssBytes) / (1024.0 * 1024.0);
    check.current =
        static_cast<double>(candidate.env.peakRssBytes) / (1024.0 * 1024.0);
    check.relDelta = (check.current - check.baseline) /
                     std::max(std::fabs(check.baseline), 1e-12);
    const auto it = thresholds.find("peak_rss_mb");
    check.threshold = it != thresholds.end() ? it->second : kDefaultThreshold;
    check.regression = check.relDelta > check.threshold;
    check.improvement = check.relDelta < -check.threshold;
    result.checks.push_back(std::move(check));
  }

  for (const RunRecord& base : baseline.records) {
    const RunRecord* cur = candidate.find(base.benchmark, base.mapper);
    if (cur == nullptr) {
      appendProblem(result.problems, "candidate is missing record (" +
                                         base.benchmark + ", " + base.mapper +
                                         ")");
      continue;
    }
    for (const auto& [name, baseValue] : base.metrics) {
      if (!cur->has(name)) {
        appendProblem(result.problems, "candidate record (" + base.benchmark +
                                           ", " + base.mapper +
                                           ") is missing metric '" + name +
                                           "'");
        continue;
      }
      MetricCheck check;
      check.benchmark = base.benchmark;
      check.mapper = base.mapper;
      check.metric = name;
      check.baseline = baseValue;
      check.current = cur->metricOr(name, 0);
      check.relDelta = (check.current - check.baseline) /
                       std::max(std::fabs(check.baseline), 1e-12);
      const auto it = thresholds.find(name);
      check.threshold = it != thresholds.end() ? it->second : kDefaultThreshold;
      // Every gated metric is lower-is-better.
      check.regression = check.relDelta > check.threshold;
      check.improvement = check.relDelta < -check.threshold;
      result.checks.push_back(std::move(check));
    }
  }
  return result;
}

void printCheckResult(std::ostream& os, const CheckResult& result) {
  for (const std::string& p : result.problems) {
    os << "PROBLEM  " << p << "\n";
  }
  for (const MetricCheck& c : result.checks) {
    const char* verdict = c.regression      ? "REGRESSION"
                          : c.improvement   ? "improved"
                                            : "ok";
    os << std::left << std::setw(10) << verdict << " " << std::setw(8)
       << c.benchmark << " " << std::setw(10) << c.mapper << " "
       << std::setw(14) << c.metric << " " << std::right << std::setw(14)
       << c.baseline << " -> " << std::setw(14) << c.current << "  ("
       << std::showpos << std::fixed << std::setprecision(2)
       << 100.0 * c.relDelta << "%" << std::noshowpos << ")";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
    if (std::isfinite(c.threshold)) {
      os << "  [threshold " << 100.0 * c.threshold << "%]";
    }
    os << "\n";
  }
  const std::size_t regs = result.regressions();
  os << (result.pass() ? "CHECK PASSED" : "CHECK FAILED") << ": "
     << result.checks.size() << " metrics compared, " << regs
     << " regression(s), " << result.problems.size() << " problem(s)\n";
}

}  // namespace rahtm::obs
