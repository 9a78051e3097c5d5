#include "core/subproblem.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/milp_mapper.hpp"
#include "exec/thread_pool.hpp"
#include "graph/stats.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "routing/delta_eval.hpp"
#include "routing/oblivious.hpp"

namespace rahtm {

double evalPlacement(const CommGraph& g, const Torus& cube,
                     const std::vector<NodeId>& vertexOf, MapObjective obj) {
  if (obj == MapObjective::Mcl) {
    return placementMcl(cube, g, vertexOf);
  }
  return hopBytes(g, cube, vertexOf);
}

SubproblemSolution exhaustiveSearch(const CommGraph& g, const Torus& cube,
                                    MapObjective obj) {
  const auto verts = static_cast<std::size_t>(g.numRanks());
  const auto nodes = static_cast<std::size_t>(cube.numNodes());
  RAHTM_REQUIRE(verts <= nodes, "exhaustiveSearch: graph larger than cube");
  RAHTM_REQUIRE(nodes <= static_cast<std::size_t>(kExhaustiveNodeCap),
                "exhaustiveSearch: cube too large (max 9 nodes)");

  std::vector<NodeId> nodesPerm(nodes);
  std::iota(nodesPerm.begin(), nodesPerm.end(), 0);

  SubproblemSolution best;
  best.method = "exhaustive";
  best.objective = std::numeric_limits<double>::infinity();
  // Vertex v sits at nodesPerm[v]; extra nodes stay empty.
  std::vector<NodeId> placement(nodesPerm.begin(),
                                nodesPerm.begin() + static_cast<long>(verts));
  DeltaPlacementEval eval(cube, g, placement, obj);
  do {
    std::copy(nodesPerm.begin(), nodesPerm.begin() + static_cast<long>(verts),
              placement.begin());
    eval.reset(placement);
    const double val = obj == MapObjective::Mcl ? eval.mcl() : eval.hopBytes();
    if (val < best.objective) {
      best.objective = val;
      best.vertexOf = placement;
    }
    ++best.iterations;
  } while (std::next_permutation(nodesPerm.begin(), nodesPerm.end()));
  return best;
}

double annealAcceptanceBar(double c0, double tie, double temp, double u) {
  if (u <= 0) return DeltaPlacementEval::kNoBar;
  const double m = std::max(tie, -temp * std::log(u));
  return c0 + m + 1e-12 * (c0 + m + temp);
}

SubproblemSolution annealSearch(const CommGraph& g, const Torus& cube,
                                const SubproblemConfig& cfg,
                                exec::ThreadPool* pool) {
  const auto verts = static_cast<std::size_t>(g.numRanks());
  const auto nodes = static_cast<std::size_t>(cube.numNodes());
  RAHTM_REQUIRE(verts >= 1, "annealSearch: empty graph");
  RAHTM_REQUIRE(verts <= nodes, "annealSearch: graph larger than cube");

  // Pre-split one RNG stream per restart (Rng::split() == Rng(next())), so
  // the streams are the same whether restarts run serially or on the pool.
  const int restarts = std::max(1, cfg.annealRestarts);
  Rng master(cfg.seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(restarts));
  for (auto& s : seeds) s = master.next();

  // One immutable route table, shared read-only by all restarts (and pool
  // workers). Hop-bytes needs no routes at all.
  const bool mcl = cfg.objective == MapObjective::Mcl;
  const std::shared_ptr<const RouteTable> routes =
      mcl ? routeTableFor(cube, cfg.artifacts) : nullptr;
  // One incidence for all restarts (content-deterministic, so sharing keeps
  // results bit-identical to per-restart builds).
  const std::shared_ptr<const FlowIncidence> incidence =
      cfg.artifacts != nullptr
          ? cfg.artifacts->flowIncidence(g)
          : std::make_shared<const FlowIncidence>(buildFlowIncidence(g));

  struct RestartResult {
    double objective = std::numeric_limits<double>::infinity();
    std::vector<NodeId> placement;
    long iterations = 0;
    std::uint64_t probes = 0;
    std::uint64_t cuts = 0;
    std::uint64_t commits = 0;
    std::uint64_t maskedSweeps = 0;
    std::uint64_t channelVisits = 0;
  };
  std::vector<RestartResult> results(static_cast<std::size_t>(restarts));

  const auto runRestart = [&](std::size_t restart) {
    Rng rng(seeds[restart]);
    // Random initial placement over all cube nodes; the tail of the
    // permutation is the (possibly empty) set of unoccupied nodes.
    std::vector<NodeId> nodesPerm(nodes);
    std::iota(nodesPerm.begin(), nodesPerm.end(), 0);
    rng.shuffle(nodesPerm);
    std::vector<NodeId> placement(nodesPerm.begin(),
                                  nodesPerm.begin() + static_cast<long>(verts));
    std::vector<NodeId> empty(nodesPerm.begin() + static_cast<long>(verts),
                              nodesPerm.end());
    DeltaPlacementEval state(cube, g, std::move(placement), cfg.objective,
                             routes, incidence);
    const auto curObj = [&] { return mcl ? state.mcl() : state.hopBytes(); };

    RestartResult& out = results[restart];
    out.objective = curObj();
    out.placement = state.placement();
    obs::FlightRecorder::instance().record(
        obs::FrEvent::AnnealRestart, static_cast<std::int64_t>(restart),
        static_cast<std::int64_t>(verts));

    // Move targets: another occupied slot (swap) or an empty node
    // (relocation). With a single node there is no move at all.
    const std::size_t slots = verts + empty.size();
    if (slots < 2) return;

    // Witness hint per (moved vertex, target slot): the channel holding the
    // candidate max at that move's last full probe, kept while the move is
    // rejected. A move without one runs the full probe.
    std::vector<ChannelId> hints(verts * slots, kInvalidChannel);

    // Geometric cooling sized to the initial objective scale.
    double temp = std::max(1e-9, curObj() * 0.25);
    const double cooling = std::pow(
        1e-4, 1.0 / static_cast<double>(std::max<long>(1, cfg.annealIters)));
    for (long it = 0; it < cfg.annealIters; ++it) {
      // Batched liveness: one striped fetch_add per 64 iterations keeps the
      // hottest loop in the codebase inside the <=2% forensics budget.
      if ((it & 63) == 0) {
        obs::Heartbeats::instance().beat(obs::Pulse::AnnealIterations, 64);
        if ((it & 8191) == 0) {
          obs::FlightRecorder::instance().record(
              obs::FrEvent::AnnealEpoch, static_cast<std::int64_t>(restart),
              it);
        }
      }
      const auto a = static_cast<RankId>(rng.nextBounded(verts));
      // Resample the target on collision: a `continue` here would skip the
      // temp update below and make the effective cooling-schedule length
      // vary with the collision count.
      auto t = static_cast<std::size_t>(rng.nextBounded(slots));
      while (t == static_cast<std::size_t>(a)) {
        t = static_cast<std::size_t>(rng.nextBounded(slots));
      }
      ++out.iterations;
      const bool relocate = t >= verts;
      // Objective-neutral moves evaluate to exactly 0 under a from-scratch
      // evaluator but to +-ulps under incremental tracking; real uphill
      // steps are whole route-fraction quanta. Treat the residue band as
      // "not uphill" so a neutral move is accepted without consuming an RNG
      // draw — otherwise the acceptance stream would be resampled on noise.
      const double tie = 1e-9 * std::max(1.0, curObj());
      // The acceptance bar, from the draw the test below would make (peeked
      // from a copy, so the stream is unchanged): a candidate above it is
      // rejected, and a probe that proves it is cut and returns +inf, which
      // the same test rejects with the same draw.
      double bar = DeltaPlacementEval::kNoBar;
      if (mcl) {
        Rng peek = rng;
        bar = annealAcceptanceBar(curObj(), tie, temp, peek.nextDouble());
      }
      ChannelId& hint = hints[static_cast<std::size_t>(a) * slots + t];
      const DeltaPlacementEval::Summary& s =
          relocate ? state.probeMove(a, empty[t - verts], bar, hint)
                   : state.probeSwap(a, static_cast<RankId>(t), bar, hint);
      const double cand = mcl ? s.mcl : s.hopBytes;
      const double delta = cand - curObj();
      if (delta <= tie || rng.nextDouble() < std::exp(-delta / temp)) {
        hint = kInvalidChannel;
        if (relocate) {
          const NodeId vacated = state.placement()[static_cast<std::size_t>(a)];
          state.commit();
          empty[t - verts] = vacated;
        } else {
          state.commit();
        }
        if (curObj() < out.objective) {
          out.objective = curObj();
          out.placement = state.placement();
        }
      } else if (state.hasPending()) {  // a rejected full probe
        hint = state.probeMaxChannel();
      }
      temp *= cooling;
    }
    out.probes = state.probes();
    out.cuts = state.cuts();
    out.commits = state.commits();
    out.maskedSweeps = state.maskedSweeps();
    out.channelVisits = state.channelVisits();
    // Report the best placement under a from-scratch evaluation: the
    // incrementally tracked objective can drift from the exact value by a
    // few ulps over a long move sequence.
    out.objective = evalPlacement(g, cube, out.placement, cfg.objective);
  };

  if (pool != nullptr) {
    pool->parallelFor(static_cast<std::size_t>(restarts), runRestart);
  } else {
    for (std::size_t r = 0; r < static_cast<std::size_t>(restarts); ++r) {
      runRestart(r);
    }
  }

  // Reduce in restart order (strict improvement), matching the serial loop.
  SubproblemSolution best;
  best.method = "anneal";
  best.objective = std::numeric_limits<double>::infinity();
  for (const RestartResult& r : results) {
    best.iterations += r.iterations;
    best.probes += r.probes;
    best.cuts += r.cuts;
    best.commits += r.commits;
    best.maskedSweeps += r.maskedSweeps;
    best.channelVisits += r.channelVisits;
    if (r.objective < best.objective) {
      best.objective = r.objective;
      best.vertexOf = r.placement;
    }
  }
  return best;
}

namespace {

/// Portfolio dispatch body (wrapped by solveSubproblem for telemetry).
SubproblemSolution dispatchSubproblem(const CommGraph& g, const Torus& cube,
                                      const SubproblemConfig& cfg,
                                      exec::ThreadPool* pool) {
  const std::int64_t nodes = cube.numNodes();
  obs::FlightRecorder::instance().record(
      obs::FrEvent::SubproblemDispatch,
      static_cast<std::int64_t>(g.numRanks()), nodes);
  if (nodes <= cfg.milpMaxVerts && cfg.objective == MapObjective::Mcl) {
    MilpMapOptions opts;
    opts.timeLimitSec = cfg.milpTimeLimitSec;
    opts.maxNodes = cfg.milpMaxNodes;
    const MilpMapResult r = milpMapToCube(g, cube, opts);
    if (r.solved) {
      SubproblemSolution s;
      s.vertexOf = r.vertexOf;
      s.method = "milp";
      s.iterations = r.nodesExplored;
      // Report the objective under the pipeline's common (oblivious) metric
      // so values are comparable across methods.
      s.objective = evalPlacement(g, cube, r.vertexOf, cfg.objective);
      return s;
    }
    RAHTM_LOG(Warn) << "MILP subproblem fell through (" << r.statusString
                    << "); falling back";
  }
  // Clamp the exhaustive window to what exhaustiveSearch can feasibly
  // enumerate: a raised exhaustiveMaxVerts must degrade to annealing, not
  // abort the whole pipeline mid-run on the solver's size check.
  std::int64_t exhaustiveCap = cfg.exhaustiveMaxVerts;
  if (exhaustiveCap > kExhaustiveNodeCap) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      RAHTM_LOG(Warn) << "exhaustiveMaxVerts=" << cfg.exhaustiveMaxVerts
                      << " exceeds the exhaustive-search cap of "
                      << kExhaustiveNodeCap
                      << " nodes; clamping (larger cubes anneal)";
    }
    exhaustiveCap = kExhaustiveNodeCap;
  }
  if (nodes <= exhaustiveCap) {
    return exhaustiveSearch(g, cube, cfg.objective);
  }
  return annealSearch(g, cube, cfg, pool);
}

}  // namespace

SubproblemSolution solveSubproblem(const CommGraph& g, const Torus& cube,
                                   const SubproblemConfig& cfg,
                                   exec::ThreadPool* pool) {
  obs::ScopedSpan span(obs::tracer(), "rahtm.subproblem", "rahtm");
  span.attr("verts", static_cast<std::int64_t>(g.numRanks()));
  span.attr("cube_nodes", cube.numNodes());
  SubproblemSolution s = dispatchSubproblem(g, cube, cfg, pool);
  span.attr("method", s.method);
  span.attr("iterations", static_cast<std::int64_t>(s.iterations));
  span.attr("objective", s.objective);
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    reg->counter("rahtm.subproblems").add(1);
    reg->counter("rahtm.subproblem.method." + s.method).add(1);
    if (s.probes != 0) {
      reg->counter("rahtm.anneal.probes")
          .add(static_cast<std::int64_t>(s.probes));
      reg->counter("rahtm.anneal.cut").add(static_cast<std::int64_t>(s.cuts));
      reg->counter("rahtm.anneal.commits")
          .add(static_cast<std::int64_t>(s.commits));
      reg->counter("rahtm.anneal.masked_sweeps")
          .add(static_cast<std::int64_t>(s.maskedSweeps));
      reg->counter("rahtm.anneal.channel_visits")
          .add(static_cast<std::int64_t>(s.channelVisits));
    }
  }
  return s;
}

}  // namespace rahtm
