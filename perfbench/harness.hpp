#pragma once
/// \file harness.hpp
/// Shared machinery of the benchmark binary: options, order statistics,
/// the per-run result (metrics + correctness tally), and the traced-run
/// telemetry (an obs::Tracer and obs::MetricsRegistry installed around the
/// calls being measured, with spans kept in memory and written at the end).

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mapping/mapping.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simnet/simulator.hpp"
#include "topology/torus.hpp"

namespace perfbench {

namespace obs = rahtm::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;  ///< measured window of one run
  bool trace = false;   ///< per-layer (traced) run instead of end-to-end
  std::string outDir = ".";
  std::string sourceDigest = "unknown";
  /// Worker threads a threaded operation may use: min(4, nproc).
  int threads = 1;
};

/// Seconds on the steady clock since an arbitrary epoch.
double now();

double median(std::vector<double> v);
/// Linear-interpolated q-quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);

/// Pin the calling thread to the next CPU in turn. On a shared host a
/// thread left on one core keeps that core's neighbours for a whole run;
/// running each measured operation on the next core samples every core
/// alike.
void pinToNextCpu();
/// Let the calling thread (and threads it creates) run on every CPU again.
void unpin();

/// Time \p fn repeatedly, each call on the next CPU, at least \p minReps
/// times and for at least \p minSec seconds in total; returns the duration
/// of every call. Steps that take microseconds are repeated this way so
/// their median is steady from run to run.
template <class Fn>
std::vector<double> repeatFor(double minSec, int minReps, Fn&& fn) {
  std::vector<double> out;
  const double start = now();
  while (static_cast<int>(out.size()) < minReps || now() - start < minSec) {
    pinToNextCpu();
    const double t0 = now();
    fn();
    out.push_back(now() - t0);
  }
  unpin();
  return out;
}

/// SplitMix64: derives independent, reproducible streams from the seed.
std::uint64_t mix(std::uint64_t x);

/// What one run reports: named metrics with units, plus the operations
/// attempted and the ones that failed a correctness check.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Count one operation; it fails when \p problems is non-empty (each
  /// problem is logged to stderr).
  void operation(const std::vector<std::string>& problems);
  bool correct() const { return failed_ == 0 && attempted_ > 0; }

  /// One "name value unit" line per metric, for people reading the log.
  std::string table() const;
  /// The single-line JSON result, printed as the last line of stdout.
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// The end-to-end metrics every workload reports (README.md defines each
/// per workload).
struct EndToEnd {
  double setupSec = 0;
  double latencyP50 = 0;
  double latencyP90 = 0;
  double servedPerSec = 0;
  double solveSec = 0;
  double mcl = 0;
  double hopBytes = 0;
  double simCycles = 0;
  double peakRssMb = 0;  ///< VmHWM right after the measured window
};
void addEndToEnd(Result& r, const EndToEnd& e);

/// Per-layer metric values by name. addPerLayer() emits the full list in
/// its fixed order; a layer the workload does not exercise reads 0.
using Layers = std::map<std::string, double>;
void addPerLayer(Result& r, const Layers& layers);

/// Per-operation correctness checks collected before Result::operation().
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) problems_.push_back(what);
  }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::vector<std::string> problems_;
};

/// Telemetry of the traced run. Inert unless Options::trace; when active,
/// setEnabled(true) installs the process-global tracer and metrics registry
/// (so the program's own spans and work counters land here) and
/// setEnabled(false) removes them, which lets a workload interleave traced
/// and untraced operations to measure the tracing overhead.
class Telemetry {
 public:
  explicit Telemetry(const Options& opt);
  ~Telemetry();
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  bool active() const { return active_; }
  void setEnabled(bool on);

  /// Span recorded by the benchmark around a call into the program; null
  /// tracer (untraced) spans still time the call.
  obs::ScopedSpan span(const char* name) const {
    return obs::ScopedSpan(enabled_ ? tracer_.get() : nullptr, name, "bench");
  }

  std::int64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  /// Durations (seconds) of every recorded span named \p name.
  std::vector<double> spanSeconds(const std::string& name) const;

  /// Write the kept spans as a Chrome trace into Options::outDir.
  void write(const Options& opt) const;

 private:
  bool active_ = false;
  bool enabled_ = false;
  std::unique_ptr<obs::Tracer> tracer_;
  std::unique_ptr<obs::MetricsRegistry> registry_;
};

/// The evaluation traffic of a mapping, as in the paper's Fig. 10: the
/// named NAS workload with 64 KB messages, four iterations back to back.
std::vector<rahtm::simnet::Phase> evalStages(const std::string& benchmark,
                                             rahtm::RankId ranks);

/// One mapping simulated at cycle fidelity and at flow fidelity (BG/Q-like
/// NIC: injection bandwidth 4), with the correctness checks that apply:
/// flow mode's conservation counts equal cycle mode's exactly, and cycle
/// mode repeats \p expectedCycles when that is non-negative.
struct SimPair {
  rahtm::simnet::PhaseResult cycle;
  rahtm::simnet::PhaseResult flow;
  double cycleSec = 0;
  double flowSec = 0;
};
SimPair simulateBoth(const Telemetry& tel, const rahtm::Torus& machine,
                     const rahtm::Mapping& mapping,
                     const std::vector<rahtm::simnet::Phase>& stages,
                     std::int64_t expectedCycles, Checks& checks,
                     const std::string& what);

/// Median of traced minus median of untraced operation times: the cost the
/// tracing itself adds to one operation (obs.trace_overhead).
double traceOverhead(const std::vector<double>& traced,
                     const std::vector<double>& untraced);

/// Routing-layer probes shared by the workloads' traced runs: build the
/// complete route table of \p machine (median of \p reps builds) and read
/// random routes through RouteTable::find for about \p readSeconds.
struct RouteTableProbe {
  double buildSeconds = 0;
  double tableMb = 0;
  double entries = 0;
  double readsPerSec = 0;
};
RouteTableProbe probeRouteTable(const rahtm::Torus& machine, int reps,
                                double readSeconds, std::uint64_t seed);

/// obs.mem_accounted_mb and obs.rss_coverage, read at the end of a run.
void addMemoryMetrics(Result& r);

/// Peak resident set size so far, in MiB.
double peakRssMb();

/// Environment fingerprint printed with every result set.
std::string fingerprint(const Options& opt);

}  // namespace perfbench
