/// \file suites_serve.cpp
/// The `serve` suite: a closed-loop in-process client over the
/// mapping-as-a-service stack (serve::MapService + Scheduler +
/// ArtifactCache). Registered through the suite registry from this
/// translation unit — nothing in suites.cpp knows it exists.
///
/// The ledger carries three kinds of columns:
///  * quality (mcl / hop_bytes per benchmark) — gated at the default
///    tolerances, served mappings must match one-shot quality;
///  * correctness counters with committed baselines of 0 —
///    `served_determinism_mismatches` (a served mapping differing from the
///    uncached one-shot run at the same seed) and `warm_route_misses` (a
///    cache-warm request that still rebuilt a route table), both hard
///    failures on any nonzero value;
///  * latency — requests/sec and p50/p95/p99 over the scheduler's
///    queue+solve latency histogram, reported but never gated (wall time
///    is host noise).

#include <string>
#include <vector>

#include "bench/experiment.hpp"
#include "bench/suites.hpp"
#include "common/timer.hpp"
#include "graph/stats.hpp"
#include "obs/metrics.hpp"
#include "routing/oblivious.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"

namespace rahtm::bench {

namespace {

/// Install a private registry for the suite's duration so the scheduler's
/// latency histograms exist and start empty (and a co-resident session's
/// registry is not polluted).
struct ScopedMetrics {
  obs::MetricsRegistry* prev = obs::metrics();
  obs::MetricsRegistry registry;
  ScopedMetrics() { obs::setMetrics(&registry); }
  ~ScopedMetrics() { obs::setMetrics(prev); }
};

obs::RunReport suiteServe(const ExperimentScale& scale) {
  obs::RunReport report;
  report.suite = "serve";

  const std::vector<std::string> benchmarks = {"CG", "BT"};
  constexpr int kRepeats = 3;  // same request repeated -> cache-warm solves

  ScopedMetrics metrics;
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig schedCfg;
  schedCfg.threads = 2;

  const auto makeRequest = [&](const std::string& benchmark) {
    serve::MapRequest req;
    req.machine = scale.machine.shape();
    req.concentration = scale.concentration;
    req.benchmark = benchmark;
    req.messageBytes = scale.params.messageBytes;
    return req;
  };

  // One-shot references: an uncached service, solved serially — the
  // historical rahtm_map behavior the served results must reproduce bit
  // for bit (equal seeds, shared artifacts content-identical).
  serve::MapService oneShot;
  std::vector<serve::MapResponse> reference;
  for (const std::string& b : benchmarks) {
    reference.push_back(oneShot.handle(makeRequest(b)));
  }

  // Closed-loop batch: every request submitted up front, drained to
  // completion; latency = queue wait + solve, throughput = the wall clock
  // over the whole batch.
  std::int64_t mismatches = 0;
  double batchSeconds = 0;
  std::size_t batchRequests = 0;
  {
    serve::Scheduler sched(service, schedCfg);
    std::vector<std::future<serve::MapResponse>> futures;
    std::vector<std::size_t> refOf;  // future index -> reference index
    Timer wall;
    for (int rep = 0; rep < kRepeats; ++rep) {
      for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        serve::Scheduler::Ticket t = sched.submit(makeRequest(benchmarks[b]));
        if (!t.accepted) continue;  // depth 64 >> batch size; never rejects
        futures.push_back(std::move(t.response));
        refOf.push_back(b);
      }
    }
    std::vector<serve::MapResponse> served;
    for (std::future<serve::MapResponse>& f : futures) {
      served.push_back(f.get());
    }
    batchSeconds = wall.seconds();
    batchRequests = served.size();
    for (std::size_t i = 0; i < served.size(); ++i) {
      const serve::MapResponse& ref = reference[refOf[i]];
      if (!served[i].ok || served[i].mapping != ref.mapping) ++mismatches;
    }
  }

  // Cache-warm probe: every artifact this topology/workload needs is now
  // resident, so one more request must not miss (and therefore must not
  // rebuild a route table).
  const serve::ArtifactCacheStats before = cache.stats();
  const serve::MapResponse warm = service.handle(makeRequest(benchmarks[0]));
  const serve::ArtifactCacheStats after = cache.stats();
  const auto warmRouteMisses =
      static_cast<double>(after.routeMisses - before.routeMisses);
  const auto warmIncidenceMisses =
      static_cast<double>(after.incidenceMisses - before.incidenceMisses);
  if (!warm.ok) ++mismatches;

  // Quality columns: one gated record per benchmark, from the served runs'
  // one-shot twins (identical by the determinism gate above).
  for (std::size_t b = 0; b < benchmarks.size(); ++b) {
    obs::RunRecord record;
    record.benchmark = benchmarks[b];
    record.mapper = "rahtm";
    record.add("mcl", reference[b].mcl);
    record.add("hop_bytes", reference[b].hopBytes);
    record.add("solve_sec", reference[b].solveSeconds);
    report.records.push_back(std::move(record));
  }

  // Service record: correctness counters (gated 0) + the latency ledger.
  const obs::Histogram& latency = metrics.registry.histogram(
      "rahtm.serve.latency_sec", obs::expBuckets(1e-4, 2.0, 21));
  obs::RunRecord record;
  record.benchmark = "serve";
  record.mapper = "scheduler";
  record.add("served_determinism_mismatches", static_cast<double>(mismatches));
  record.add("warm_route_misses", warmRouteMisses);
  record.add("warm_incidence_misses", warmIncidenceMisses);
  record.add("requests_per_sec",
             batchSeconds > 0
                 ? static_cast<double>(batchRequests) / batchSeconds
                 : 0);
  record.add("latency_p50_sec", latency.quantile(0.50));
  record.add("latency_p95_sec", latency.quantile(0.95));
  record.add("latency_p99_sec", latency.quantile(0.99));
  record.add("cache_route_hits", static_cast<double>(after.routeHits));
  record.add("cache_route_misses", static_cast<double>(after.routeMisses));
  record.add("cache_incidence_hits", static_cast<double>(after.incidenceHits));
  record.add("cache_incidence_misses",
             static_cast<double>(after.incidenceMisses));
  record.add("cache_bytes", static_cast<double>(after.bytes));
  report.records.push_back(std::move(record));

  obs::EnvFingerprint env = obs::currentEnvFingerprint();
  env.nodes = scale.machine.numNodes();
  env.concentration = scale.concentration;
  env.messageBytes = scale.params.messageBytes;
  env.simIterations = scale.simIterations;
  env.threads = schedCfg.threads;
  report.env = env;
  return report;
}

const SuiteRegistrar kServeSuite{"serve", 95, suiteServe};

}  // namespace

}  // namespace rahtm::bench
