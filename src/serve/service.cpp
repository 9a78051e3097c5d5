#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/bisection_mapper.hpp"
#include "core/greedy_mapper.hpp"
#include "graph/stats.hpp"
#include "mapping/hilbert.hpp"
#include "mapping/permutation.hpp"
#include "mapping/rubik.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/delta_eval.hpp"
#include "workloads/workload.hpp"

namespace rahtm::serve {

Shape parseShapeSpec(const std::string& spec, const std::string& source) {
  const std::vector<std::string> parts = split(spec, 'x');
  if (parts.size() > kMaxDims) {
    throw ParseError(source + " has more than " + std::to_string(kMaxDims) +
                     " extents: '" + spec + "'");
  }
  Shape shape;
  for (const std::string& part : parts) {
    std::int64_t extent = 0;
    try {
      extent = parseInt(part);
    } catch (const ParseError& e) {
      throw ParseError(source + ": " + e.what());
    }
    if (extent < std::numeric_limits<std::int32_t>::min() ||
        extent > std::numeric_limits<std::int32_t>::max()) {
      throw ParseError(source + ": extent out of range: '" + spec + "'");
    }
    shape.push_back(static_cast<std::int32_t>(extent));
  }
  return shape;
}

void checkMapRequest(const MapRequest& req,
                     std::string (*name)(const std::string& member)) {
  for (const std::int32_t extent : req.machine) {
    if (extent < 1) {
      throw ParseError(name("machine") + " extents must be >= 1, got " +
                       std::to_string(extent));
    }
  }
  if (req.concentration < 1) {
    throw ParseError(name("concentration") + " must be >= 1, got " +
                     std::to_string(req.concentration));
  }
  if (req.messageBytes < 0) {
    throw ParseError(name("bytes") + " must be >= 0, got " +
                     std::to_string(req.messageBytes));
  }
}

RequestInput MapService::buildInput(const MapRequest& req) const {
  const Torus machine = Torus::torus(req.machine);
  const auto ranks =
      static_cast<RankId>(machine.numNodes() * req.concentration);
  RequestInput input;
  if (req.hasGraph) {
    RAHTM_REQUIRE(req.graph.numRanks() == ranks,
                  "MapRequest: graph ranks != nodes * concentration");
    input.graph = req.graph;
    input.grid = req.grid;
  } else {
    NasParams params;
    params.messageBytes = req.messageBytes;
    const Workload w = makeNasByName(req.benchmark, ranks, params);
    input.graph = w.commGraph();
    input.grid = w.logicalGrid;
    input.simStages = w.phases;
  }
  return input;
}

std::unique_ptr<TaskMapper> MapService::makeMapper(const MapRequest& req,
                                                   const Shape& grid) const {
  const Torus machine = Torus::torus(req.machine);
  const auto ranks =
      static_cast<RankId>(machine.numNodes() * req.concentration);
  if (req.mapper == "rahtm") {
    RahtmConfig cfg;
    cfg.logicalGrid = grid;
    cfg.merge.beamWidth = req.beamWidth;
    cfg.enableMerge = req.enableMerge;
    cfg.finalRefinement = req.finalRefinement;
    cfg.subproblem.milpMaxVerts = req.leafMilpVerts;
    cfg.subproblem.seed = req.seed;
    cfg.numThreads = req.threads;
    cfg.artifacts = cache_;
    return std::make_unique<RahtmMapper>(cfg);
  }
  if (req.mapper == "abcdet") return std::make_unique<DefaultMapper>();
  if (req.mapper == "hilbert") return std::make_unique<HilbertMapper>();
  if (req.mapper == "rht") {
    return std::make_unique<RubikMapper>(
        RubikMapper::autoFor(ranks, machine, req.concentration));
  }
  if (req.mapper == "greedy") {
    return std::make_unique<GreedyHopBytesMapper>(grid);
  }
  if (req.mapper == "rcb") {
    return std::make_unique<RecursiveBisectionMapper>(grid);
  }
  if (req.mapper == "random") return std::make_unique<RandomMapper>();
  throw Error("unknown mapper '" + req.mapper + "'");
}

MapResponse MapService::handle(const MapRequest& req) {
  MapResponse resp;
  resp.id = req.id;
  resp.benchmark = req.hasGraph ? "profile" : req.benchmark;
  resp.mapper = req.mapper;
  try {
    const RequestInput input = buildInput(req);
    return handleWithInput(req, input);
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
    if (cache_ != nullptr) resp.cache = cache_->stats();
    return resp;
  }
}

MapResponse MapService::handleWithInput(const MapRequest& req,
                                        const RequestInput& input) {
  MapResponse resp;
  resp.id = req.id;
  resp.benchmark = req.hasGraph ? "profile" : req.benchmark;
  resp.mapper = req.mapper;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const Torus machine = Torus::torus(req.machine);
    resp.machine = machine.describe();
    RAHTM_REQUIRE(req.concentration >= 1,
                  "MapRequest: concentration must be >= 1");

    std::unique_ptr<TaskMapper> mapper = makeMapper(req, input.grid);
    resp.mapping = mapper->map(input.graph, machine, req.concentration);
    const std::string err = resp.mapping.validate(machine, req.concentration);
    if (!err.empty()) throw Error("invalid mapping: " + err);

    resp.ranks = input.graph.numRanks();
    resp.flows = static_cast<std::int64_t>(input.graph.numFlows());
    const std::vector<NodeId>& nodes = resp.mapping.nodeVector();
    // placementMcl() bit for bit, read from the topology's (cached) route
    // table instead of re-enumerating every flow's minimal paths.
    std::vector<double> loads(
        static_cast<std::size_t>(machine.numChannelSlots()), 0.0);
    addPlacementRoutes(*routeTableFor(machine, cache_), input.graph, nodes,
                       loads.data());
    for (const double load : loads) resp.mcl = std::max(resp.mcl, load);
    resp.hopBytes = hopBytes(input.graph, machine, nodes);
    if (const auto* rahtm = dynamic_cast<const RahtmMapper*>(mapper.get())) {
      resp.hasRahtmStats = true;
      resp.stats = rahtm->stats();
    }
    resp.ok = true;
  } catch (const std::exception& e) {
    resp.ok = false;
    resp.error = e.what();
  }
  resp.solveSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (cache_ != nullptr) resp.cache = cache_->stats();
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter(resp.ok ? "rahtm.serve.requests_ok"
                         : "rahtm.serve.requests_failed")
        .add(1);
    // 100us .. ~100s exponential latency buckets.
    reg->histogram("rahtm.serve.solve_sec", obs::expBuckets(1e-4, 2.0, 21))
        .observe(resp.solveSeconds);
  }
  return resp;
}

obs::RunRecord responseRecord(const MapResponse& resp) {
  obs::RunRecord rec;
  rec.benchmark = resp.benchmark;
  rec.mapper = resp.mapper;
  rec.add("mcl", resp.mcl);
  rec.add("hop_bytes", resp.hopBytes);
  rec.add("queue_sec", resp.queueSeconds);
  rec.add("solve_sec", resp.solveSeconds);
  return rec;
}

}  // namespace rahtm::serve
