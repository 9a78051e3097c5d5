#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <sched.h>

#include "obs/json.hpp"
#include "obs/mem.hpp"
#include "obs/process.hpp"
#include "obs/report.hpp"
#include "routing/delta_eval.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double logSum = 0;
  for (const double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void pinToNextCpu() {
  static unsigned next = 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(next++ % std::max(1u, std::thread::hardware_concurrency()), &set);
  sched_setaffinity(0, sizeof set, &set);
}

void unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = 0; c < std::max(1u, std::thread::hardware_concurrency());
       ++c) {
    CPU_SET(c, &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Result::operation(const std::vector<std::string>& problems) {
  ++attempted_;
  if (problems.empty()) return;
  ++failed_;
  for (const std::string& p : problems) {
    std::cerr << "perfbench: check failed: " << p << "\n";
  }
}

std::string Result::table() const {
  std::ostringstream os;
  for (const auto& [name, vu] : metrics_) {
    os << "  " << name << " " << vu.first << " " << vu.second << "\n";
  }
  os << "  attempted " << attempted_ << ", failed " << failed_ << "\n";
  return os.str();
}

std::string Result::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, vu] = metrics_[i];
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", vu.first);
    os << (i ? ", " : "") << rahtm::obs::jsonString(name)
       << ": {\"value\": " << buf
       << ", \"unit\": " << rahtm::obs::jsonString(vu.second) << "}";
  }
  os << "}}";
  return os.str();
}

void addEndToEnd(Result& r, const EndToEnd& e) {
  r.metric("setup_s", e.setupSec, "s");
  r.metric("latency_p50_s", e.latencyP50, "s");
  r.metric("latency_p90_s", e.latencyP90, "s");
  r.metric("served_per_s", e.servedPerSec, "1/s");
  r.metric("solve_s", e.solveSec, "s");
  r.metric("mcl", e.mcl, "B");
  r.metric("hop_bytes", e.hopBytes, "B");
  r.metric("sim_cycles", e.simCycles, "cycles");
  r.metric("peak_rss_mb", e.peakRssMb, "MB");
}

void addPerLayer(Result& r, const Layers& layers) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"workloads.gen_s", "s"},
      {"routing.table_build_s", "s"},
      {"routing.table_mb", "MB"},
      {"routing.route_entries", "count"},
      {"routing.reads_per_s", "1/s"},
      {"routing.probes_per_s", "1/s"},
      {"routing.commits_per_s", "1/s"},
      {"core.cluster_s", "s"},
      {"core.pin_s", "s"},
      {"core.merge_s", "s"},
      {"core.refine_s", "s"},
      {"core.subproblems", "count"},
      {"core.anneal_probes", "count"},
      {"core.merge_candidates", "count"},
      {"core.merge_candidates_per_s", "1/s"},
      {"core.refine_probes", "count"},
      {"core.refine_dense_sweeps", "count"},
      {"core.pin_mcl", "B"},
      {"core.merge_mcl", "B"},
      {"core.refine_mcl", "B"},
      {"lp.milp_solves", "count"},
      {"lp.milp_nodes", "count"},
      {"lp.simplex_pivots", "count"},
      {"lp.pivots_per_s", "1/s"},
      {"lp.time_limited", "count"},
      {"exec.pool_tasks", "count"},
      {"exec.pool_utilization", "ratio"},
      {"exec.solve_s_t4", "s"},
      {"exec.speedup_t4", "ratio"},
      {"simnet.eval_s", "s"},
      {"simnet.cycle_s", "s"},
      {"simnet.flow_s", "s"},
      {"simnet.cycles_per_s", "1/s"},
      {"simnet.flit_hops", "count"},
      {"serve.queue_s_p50", "s"},
      {"serve.queue_s_p90", "s"},
      {"serve.solve_s_p50", "s"},
      {"serve.solve_s_p90", "s"},
      {"serve.waves", "count"},
      {"serve.rejected", "count"},
      {"serve.route_hits", "count"},
      {"serve.route_misses", "count"},
      {"serve.incidence_hits", "count"},
      {"serve.incidence_misses", "count"},
      {"serve.cache_mb", "MB"},
      {"obs.trace_overhead", "s"},
      {"bench.generator_late_s_max", "s"},
  };
  for (const auto& [name, unit] : kLayers) {
    const auto it = layers.find(name);
    r.metric(name, it != layers.end() ? it->second : 0.0, unit);
  }
  for (const auto& [name, value] : layers) {
    const bool listed =
        std::any_of(std::begin(kLayers), std::end(kLayers),
                    [&](const auto& l) { return name == l.first; });
    if (!listed) throw std::logic_error("unlisted per-layer metric " + name);
  }
}

Telemetry::Telemetry(const Options& opt) : active_(opt.trace) {
  if (!active_) return;
  tracer_ = std::make_unique<rahtm::obs::Tracer>();
  registry_ = std::make_unique<rahtm::obs::MetricsRegistry>();
}

Telemetry::~Telemetry() { setEnabled(false); }

void Telemetry::setEnabled(bool on) {
  enabled_ = active_ && on;
  rahtm::obs::setTracer(enabled_ ? tracer_.get() : nullptr);
  rahtm::obs::setMetrics(enabled_ ? registry_.get() : nullptr);
}

std::int64_t Telemetry::counter(const std::string& name) const {
  if (!active_) return 0;
  const rahtm::obs::Counter* c = registry_->findCounter(name);
  return c != nullptr ? c->value() : 0;
}

double Telemetry::gauge(const std::string& name) const {
  if (!active_) return 0;
  for (const auto& [n, g] : registry_->gaugeRefs()) {
    if (n == name) return g->value();
  }
  return 0;
}

std::vector<double> Telemetry::spanSeconds(const std::string& name) const {
  std::vector<double> out;
  if (!active_) return out;
  for (const rahtm::obs::TraceEvent& e : tracer_->snapshot()) {
    if (e.name == name && e.durUs >= 0) {
      out.push_back(static_cast<double>(e.durUs) * 1e-6);
    }
  }
  return out;
}

void Telemetry::write(const Options& opt) const {
  if (!active_) return;
  const std::string path = opt.outDir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  std::ofstream os(path);
  tracer_->writeChromeTrace(os);
  std::cerr << "perfbench: wrote " << path << "\n";
}

std::vector<rahtm::simnet::Phase> evalStages(const std::string& benchmark,
                                             rahtm::RankId ranks) {
  rahtm::NasParams params;
  params.messageBytes = 64 * 1024;
  const rahtm::Workload w = rahtm::makeNasByName(benchmark, ranks, params);
  std::vector<rahtm::simnet::Phase> stages;
  for (int i = 0; i < 4; ++i) {
    stages.insert(stages.end(), w.phases.begin(), w.phases.end());
  }
  return stages;
}

SimPair simulateBoth(const Telemetry& tel, const rahtm::Torus& machine,
                     const rahtm::Mapping& mapping,
                     const std::vector<rahtm::simnet::Phase>& stages,
                     std::int64_t expectedCycles, Checks& checks,
                     const std::string& what) {
  rahtm::simnet::SimConfig sim;
  sim.injectionBandwidth = 4;
  SimPair p;
  {
    auto span = tel.span("bench.simulate.cycle");
    p.cycle = rahtm::simnet::simulateIteration(machine, mapping, stages, sim);
    p.cycleSec = span.close();
  }
  sim.fidelity = rahtm::simnet::SimFidelity::Flow;
  {
    auto span = tel.span("bench.simulate.flow");
    p.flow = rahtm::simnet::simulateIteration(machine, mapping, stages, sim);
    p.flowSec = span.close();
  }
  checks.expect(expectedCycles < 0 || p.cycle.cycles == expectedCycles,
                what + ": sim_cycles did not repeat");
  checks.expect(p.flow.networkFlits == p.cycle.networkFlits &&
                    p.flow.localFlits == p.cycle.localFlits &&
                    p.flow.flitHops == p.cycle.flitHops,
                what + ": flow-mode flit counts differ from cycle mode");
  return p;
}

double traceOverhead(const std::vector<double>& traced,
                     const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return 0;
  return median(traced) - median(untraced);
}

RouteTableProbe probeRouteTable(const rahtm::Torus& machine, int reps,
                                double readSeconds, std::uint64_t seed) {
  RouteTableProbe p;
  std::vector<double> builds;
  std::shared_ptr<const rahtm::RouteTable> table;
  for (int i = 0; i < reps; ++i) {
    table.reset();
    const double t0 = now();
    table = rahtm::RouteTable::buildFull(machine);
    builds.push_back(now() - t0);
  }
  p.buildSeconds = median(builds);
  p.tableMb = static_cast<double>(table->footprintBytes()) / (1 << 20);
  p.entries = static_cast<double>(table->entryCount());

  const auto n = static_cast<std::uint64_t>(machine.numNodes());
  std::uint64_t state = mix(seed);
  std::int64_t reads = 0;
  double sink = 0;
  const double t0 = now();
  double elapsed = 0;
  while (elapsed < readSeconds) {
    for (int k = 0; k < 4096; ++k) {
      state = mix(state);
      const auto src = static_cast<rahtm::NodeId>(state % n);
      const auto dst = static_cast<rahtm::NodeId>((state >> 32) % n);
      const rahtm::RouteTable::Span s = table->find(src, dst);
      for (std::size_t e = 0; e < s.size; ++e) sink += s.fracs[e];
    }
    reads += 4096;
    elapsed = now() - t0;
  }
  p.readsPerSec = static_cast<double>(reads) / elapsed;
  if (sink < 0) std::cerr << sink;  // keep the reads observable
  return p;
}

double peakRssMb() {
  return static_cast<double>(rahtm::obs::peakRssBytes()) / (1 << 20);
}

void addMemoryMetrics(Result& r) {
  const auto& mem = rahtm::obs::MemRegistry::instance();
  const double peakRss = static_cast<double>(rahtm::obs::peakRssBytes());
  const double accounted = static_cast<double>(mem.totalPeakBytes());
  const double growth =
      peakRss - static_cast<double>(mem.baselineRssBytes());
  r.metric("obs.mem_accounted_mb", accounted / (1 << 20), "MB");
  r.metric("obs.rss_coverage", growth > 0 ? accounted / growth : 0, "ratio");
}

std::string fingerprint(const Options& opt) {
  const rahtm::obs::EnvFingerprint env = rahtm::obs::currentEnvFingerprint();
  std::ostringstream os;
  os << "{\"git_sha\": " << rahtm::obs::jsonString(env.gitSha)
     << ", \"source_digest\": " << rahtm::obs::jsonString(opt.sourceDigest)
     << ", \"compiler\": " << rahtm::obs::jsonString(env.compiler)
     << ", \"build_type\": " << rahtm::obs::jsonString(env.buildType)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"threads\": " << opt.threads
     << ", \"workload\": " << rahtm::obs::jsonString(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
     << ", \"trace\": " << (opt.trace ? 1 : 0) << "}";
  return os.str();
}

}  // namespace perfbench
