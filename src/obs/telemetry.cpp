#include "obs/telemetry.hpp"

#include <cstdlib>
#include <fstream>
#include <functional>

#include "common/error.hpp"

namespace rahtm::obs {

namespace {

std::string envString(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr ? std::string() : std::string(v);
}

void writeFileOrThrow(const std::string& path,
                      const std::function<void(std::ostream&)>& writer) {
  std::ofstream out(path);
  if (!out) throw Error("telemetry: cannot write " + path);
  writer(out);
  out.flush();
  if (!out) throw Error("telemetry: write failed for " + path);
}

}  // namespace

TelemetryConfig telemetryConfigFromEnv() {
  TelemetryConfig cfg;
  cfg.traceOutPath = envString("RAHTM_TRACE_OUT");
  cfg.traceSummaryPath = envString("RAHTM_TRACE_SUMMARY");
  cfg.metricsOutPath = envString("RAHTM_METRICS_OUT");
  return cfg;
}

void registerStandardMetrics(MetricsRegistry& registry) {
  // LP layer.
  registry.counter("lp.simplex.solves");
  registry.counter("lp.simplex.pivots");
  registry.histogram("lp.simplex.pivots_per_solve", expBuckets(1, 2, 20));
  registry.counter("lp.milp.solves");
  registry.counter("lp.milp.nodes");
  registry.counter("lp.milp.incumbents");
  registry.histogram("lp.milp.nodes_per_solve", expBuckets(1, 2, 20));
  // RAHTM pipeline.
  registry.counter("rahtm.subproblems");
  registry.counter("rahtm.subproblem.method.milp");
  registry.counter("rahtm.subproblem.method.exhaustive");
  registry.counter("rahtm.subproblem.method.anneal");
  registry.counter("rahtm.merge.regions");
  registry.counter("rahtm.merge.candidates");
  registry.counter("rahtm.merge.scored");
  registry.counter("rahtm.merge.cut");
  registry.counter("rahtm.anneal.cut");
  registry.counter("rahtm.anneal.masked_sweeps");
  registry.counter("rahtm.anneal.channel_visits");
  registry.counter("rahtm.refine.passes");
  registry.counter("rahtm.refine.swaps");
  registry.counter("rahtm.refine.masked_sweeps");
  registry.counter("rahtm.refine.channel_visits");
  // Per-phase quality attribution (core/rahtm.cpp recordPhaseQuality).
  for (const char* phase : {"cluster", "pin", "merge", "refine"}) {
    registry.gauge(std::string("rahtm.quality.") + phase + ".mcl");
    registry.gauge(std::string("rahtm.quality.") + phase + ".hop_bytes");
  }
  // Simulator.
  registry.counter("simnet.runs");
  registry.counter("simnet.cycles");
  registry.counter("simnet.network_flits");
  registry.counter("simnet.local_flits");
  registry.counter("simnet.flit_hops");
  registry.histogram("simnet.link_queue_flits", expBuckets(1, 2, 16));
  registry.histogram("simnet.link_channel_flits", expBuckets(16, 2, 24));
}

TelemetrySession::TelemetrySession(TelemetryConfig config)
    : cfg_(std::move(config)) {
  if (cfg_.tracingEnabled()) {
    tracer_ = std::make_unique<Tracer>();
    setTracer(tracer_.get());
  }
  if (cfg_.metricsEnabled()) {
    metrics_ = std::make_unique<MetricsRegistry>();
    registerStandardMetrics(*metrics_);
    setMetrics(metrics_.get());
  }
}

TelemetrySession::~TelemetrySession() {
  try {
    flush();
  } catch (...) {
    // Destructors must not throw; a failed dump loses telemetry, nothing
    // else.
  }
  if (tracer_ != nullptr && obs::tracer() == tracer_.get()) setTracer(nullptr);
  if (metrics_ != nullptr && obs::metrics() == metrics_.get()) {
    setMetrics(nullptr);
  }
}

void TelemetrySession::flush() {
  if (tracer_ != nullptr && !cfg_.traceOutPath.empty()) {
    writeFileOrThrow(cfg_.traceOutPath,
                     [this](std::ostream& os) { tracer_->writeChromeTrace(os); });
  }
  if (tracer_ != nullptr && !cfg_.traceSummaryPath.empty()) {
    writeFileOrThrow(cfg_.traceSummaryPath,
                     [this](std::ostream& os) { tracer_->writeSummary(os); });
  }
  if (metrics_ != nullptr && !cfg_.metricsOutPath.empty()) {
    writeFileOrThrow(cfg_.metricsOutPath,
                     [this](std::ostream& os) { metrics_->writeJson(os); });
  }
}

}  // namespace rahtm::obs
