/// \file suites_route.cpp
/// The `route_micro` suite: the regression anchor of the route table
/// (RouteTable, routing/delta_eval.hpp). Registered through the suite
/// registry from this translation unit, like the serve suite.
///
/// Three records, each at a fixed shape independent of the env scale so the
/// ledger is comparable across hosts:
///
///  * **parity64** — every (src,dst) route of a 64-node torus read from the
///    table, its (fraction, multiplicity) entries expanded, and compared bit
///    for bit against forEachUniformMinimalLoad() grouped by channel.
///    `table_parity_mismatches` has a committed baseline of 0 — any nonzero
///    value is a hard failure.
///
///  * **CG512** — the full hierarchical solve on the paper's 512-node BG/Q
///    partition (CG, trimmed search budget). mcl / hop_bytes are gated at
///    the default tolerances and peak_rss_mb at 25% like every suite. The
///    route_table account's peak and the RSS coverage after the solve are
///    recorded, never gated.
///
///  * **table8x8x8x10** — one table build on a 5120-node torus: ten times
///    the paper partition. Entries and MB are gated (route memory is O(N));
///    the build time is recorded.

#include <cstdint>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "bench/experiment.hpp"
#include "bench/suites.hpp"
#include "common/timer.hpp"
#include "core/rahtm.hpp"
#include "graph/stats.hpp"
#include "obs/mem.hpp"
#include "routing/delta_eval.hpp"
#include "routing/oblivious.hpp"
#include "workloads/workload.hpp"

namespace rahtm::bench {

namespace {

constexpr double kMb = 1024.0 * 1024.0;

/// Routes of \p table that differ from the uniform-minimal enumeration
/// grouped by channel (first-appearance order, fractions in order), each
/// (fraction, multiplicity) entry expanded and every fraction compared bit
/// for bit.
std::int64_t parityMismatches(const RouteTable& table) {
  const Torus& topo = table.topology();
  const auto n = static_cast<NodeId>(topo.numNodes());
  const auto bits = [](double f) {
    std::uint64_t b = 0;
    std::memcpy(&b, &f, sizeof b);
    return b;
  };
  std::int64_t mismatches = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      std::map<ChannelId, std::size_t> groupOf;
      std::vector<std::pair<ChannelId, std::vector<std::uint64_t>>> want;
      forEachUniformMinimalLoad(
          topo, topo.coordOf(s), topo.coordOf(d), 1.0,
          [&](ChannelId c, double f) {
            const auto [it, fresh] = groupOf.emplace(c, want.size());
            if (fresh) want.emplace_back(c, std::vector<std::uint64_t>{});
            want[it->second].second.push_back(bits(f));
          });
      const RouteTable::Span got = table.find(s, d);
      bool same = got.size == want.size();
      for (std::size_t k = 0; same && k < got.size; ++k) {
        same = got.channel(k) == want[k].first &&
               std::vector<std::uint64_t>(got.multiplicity(k),
                                          bits(got.fracs[k])) ==
                   want[k].second;
      }
      if (!same) ++mismatches;
    }
  }
  return mismatches;
}

/// Trim the hierarchical solver to smoke-test effort: the 512-node record
/// exercises every phase at the paper's scale, not the full search budget.
void trimForSmoke(RahtmConfig& cfg) {
  cfg.subproblem.annealRestarts = 2;
  cfg.subproblem.annealIters = 2000;
  cfg.merge.beamWidth = 8;
  cfg.merge.maxOrientations = 64;
  cfg.merge.maxRepositionSlots = 3;
  cfg.refine.maxPasses = 2;
}

obs::RunReport suiteRouteMicro(const ExperimentScale& scale) {
  obs::RunReport report;
  report.suite = "route_micro";
  obs::MemRegistry& mem = obs::MemRegistry::instance();

  {
    const Torus probe = Torus::torus(Shape{4, 4, 4});
    obs::RunRecord record;
    record.benchmark = "parity64";
    record.mapper = "table";
    record.add("table_parity_mismatches", static_cast<double>(parityMismatches(
                                              *RouteTable::buildFull(probe))));
    report.records.push_back(std::move(record));
  }

  // Always at the paper partition regardless of the env scale. The env
  // scale still fixes the message size so the ledger fingerprint stays
  // honest about what was run.
  {
    const ExperimentScale paper =
        ExperimentScale::fromSpec(512, 1, scale.params.messageBytes, 1);
    const Workload workload = makeNasByName("CG", paper.ranks(), paper.params);
    const CommGraph graph = workload.commGraph();
    RahtmMapper mapper;
    trimForSmoke(mapper.config());
    Timer mapTimer;
    const Mapping mapped =
        mapper.mapWorkload(workload, paper.machine, paper.concentration);
    const double mapSeconds = mapTimer.seconds();
    mem.sampleRss();

    obs::RunRecord record;
    record.benchmark = "CG512";
    record.mapper = "rahtm";
    record.add("mcl", placementMcl(paper.machine, graph, mapped.nodeVector()));
    record.add("hop_bytes", hopBytes(graph, paper.machine, mapped.nodeVector()));
    record.add("map_seconds", mapSeconds);
    record.add("solve_route_table_peak_mb",
               static_cast<double>(
                   mem.peakBytes(obs::MemAccountId::RouteTable)) /
                   kMb);
    record.add("rss_coverage", obs::currentMemSection().rssCoverage);
    report.records.push_back(std::move(record));
  }

  {
    Timer buildTimer;
    const auto table = RouteTable::buildFull(Torus::torus(Shape{8, 8, 8, 10}));
    const double buildSeconds = buildTimer.seconds();
    obs::RunRecord record;
    record.benchmark = "table8x8x8x10";
    record.mapper = "table";
    record.add("table_entries", static_cast<double>(table->entryCount()));
    record.add("table_mb", static_cast<double>(table->footprintBytes()) / kMb);
    record.add("table_build_seconds", buildSeconds);
    report.records.push_back(std::move(record));
  }

  obs::EnvFingerprint env = obs::currentEnvFingerprint();
  env.nodes = scale.machine.numNodes();
  env.concentration = scale.concentration;
  env.messageBytes = scale.params.messageBytes;
  env.simIterations = scale.simIterations;
  env.threads = 1;
  report.env = env;
  return report;
}

const SuiteRegistrar kRouteMicroSuite{"route_micro", 96, suiteRouteMicro};

}  // namespace

}  // namespace rahtm::bench
