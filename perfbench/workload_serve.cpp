/// \file workload_serve.cpp
/// serve_mix: an open-loop stream of independent mapping requests through
/// serve::Scheduler (2 threads) over a cold ArtifactCache, at a fixed rate.
/// Each request is timed from when it was due. One block of the stream
/// (20 s) spreads every cheap baseline request class (5 mappers x BT/SP/CG
/// at 1024 ranks) eight times evenly over the block, and sends each RAHTM
/// class once, 10 s apart: a 2-ary 4-D machine (annealing over one 16-node
/// cube) and a 3-D machine whose 8-node leaf goes through the MILP solver
/// and stops on its 5 s wall-clock budget. Home of the serve layer, of lp, and of the cost
/// of building artifacts for a cold topology.

#include <algorithm>
#include <atomic>
#include <future>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "routing/oblivious.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "simnet/simulator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace serve = rahtm::serve;

/// One block of the stream: 122 requests in 20 s (6.1 requests/s). The
/// RAHTM requests keep the scheduler busy about a third of the time
/// (README.md).
constexpr double kBlockSec = 20;
constexpr double kRahtmGapSec = 10;  ///< RAHTM requests start at 1 s, 11 s
constexpr int kCheapRepeats = 8;     ///< copies of each cheap class per block
constexpr int kSchedulerThreads = 2;
constexpr int kSetupReps = 5;
constexpr double kEvalSec = 0.5;
constexpr int kOverheadPairs = 6;
/// SubproblemConfig::milpTimeLimitSec: a MILP span this long stopped on
/// the wall-clock budget.
constexpr double kMilpTimeLimitSec = 5.0;

const char* const kCheapMappers[] = {"abcdet", "hilbert", "rht", "greedy",
                                     "rcb"};
const char* const kNas[] = {"BT", "SP", "CG"};

serve::MapRequest request(rahtm::Shape machine, int concentration,
                          const std::string& benchmark,
                          const std::string& mapper) {
  serve::MapRequest r;
  r.machine = machine;
  r.concentration = concentration;
  r.benchmark = benchmark;
  r.mapper = mapper;
  return r;
}

/// The RAHTM request classes. Every block carries each once, so the
/// quality metrics (geometric means over these) do not depend on the seed.
std::vector<serve::MapRequest> rahtmClasses() {
  return {
      request({2, 2, 2, 2}, 4, "CG", "rahtm"),
      request({2, 2, 2}, 2, "CG", "rahtm"),
  };
}

/// Requests with equal keys are identical (ids aside).
std::string key(const serve::MapRequest& r) {
  return r.mapper + "/" + r.benchmark + "/" +
         rahtm::Torus::torus(r.machine).describe() + "/c" +
         std::to_string(r.concentration);
}

/// A request and when it is due, in seconds from the start of the stream.
struct Planned {
  serve::MapRequest req;
  double at = 0;
};

/// The seeded request stream for a window of \p seconds, block after
/// block. The seed orders the cheap requests within each block.
std::vector<Planned> makeStream(std::uint64_t seed, double seconds) {
  std::mt19937_64 rng(mix(seed));
  std::vector<Planned> out;
  for (double block = 0; block < seconds; block += kBlockSec) {
    std::vector<serve::MapRequest> cheap;
    for (int i = 0; i < kCheapRepeats; ++i) {
      for (const char* m : kCheapMappers) {
        for (const char* b : kNas) {
          cheap.push_back(request({4, 4, 4, 4}, 4, b, m));
        }
      }
    }
    std::shuffle(cheap.begin(), cheap.end(), rng);
    const double gap = kBlockSec / static_cast<double>(cheap.size());
    for (std::size_t i = 0; i < cheap.size(); ++i) {
      out.push_back({cheap[i], block + static_cast<double>(i) * gap});
    }
    const std::vector<serve::MapRequest> heavy = rahtmClasses();
    for (std::size_t i = 0; i < heavy.size(); ++i) {
      out.push_back(
          {heavy[i], block + 1 + static_cast<double>(i) * kRahtmGapSec});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Planned& a, const Planned& b) { return a.at < b.at; });
  while (!out.empty() && out.back().at >= seconds) out.pop_back();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].req.id = std::to_string(i);
  }
  return out;
}

struct Slot {
  serve::MapRequest req;
  double due = 0;
  double sent = 0;
  double done = 0;
  bool accepted = false;
  std::future<serve::MapResponse> future;
  serve::MapResponse resp;
};

/// Run the open loop: the calling thread submits each request at its due
/// time; a collector thread notes when each response becomes ready.
std::vector<Slot> serveStream(const Telemetry& tel,
                              const std::vector<Planned>& stream,
                              serve::Scheduler& scheduler) {
  std::vector<Slot> slots(stream.size());
  std::atomic<std::size_t> published{0};
  std::thread collector([&] {
    std::vector<bool> collected(slots.size(), false);
    std::size_t remaining = slots.size();
    while (remaining > 0) {
      const std::size_t p = published.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < p; ++i) {
        Slot& slot = slots[i];
        if (collected[i]) continue;
        if (slot.accepted && slot.future.wait_for(std::chrono::seconds(0)) !=
                                 std::future_status::ready) {
          continue;
        }
        slot.done = now();
        if (slot.accepted) slot.resp = slot.future.get();
        collected[i] = true;
        --remaining;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const double start = now() + 0.01;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    Slot& slot = slots[i];
    slot.req = stream[i].req;
    slot.due = start + stream[i].at;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, slot.due - now())));
    slot.sent = now();
    auto span = tel.span("bench.scheduler_submit");
    serve::Scheduler::Ticket t = scheduler.submit(slot.req);
    span.close();
    slot.accepted = t.accepted;
    if (t.accepted) slot.future = std::move(t.response);
    published.store(i + 1, std::memory_order_release);
  }
  collector.join();
  return slots;
}

struct Reference {
  serve::MapRequest req;
  serve::RequestInput input;
  double buildInputSec = 0;
  serve::MapResponse resp;
  double mcl = 0;  ///< placementMcl recomputed on the reference mapping
};

}  // namespace

void runServeMix(const Options& opt, Telemetry& tel, Result& result) {
  serve::MapService oneShot;

  // Set-up: generate the stream and the input of every distinct request
  // (kept for the reference solves below).
  std::vector<Planned> stream;
  std::map<std::string, Reference> refs;
  std::vector<double> setups;
  for (int i = 0; i < kSetupReps; ++i) {
    pinToNextCpu();
    const double t0 = now();
    stream = makeStream(opt.seed, opt.seconds);
    refs.clear();
    for (const Planned& p : stream) {
      Reference& ref = refs[key(p.req)];
      if (ref.input.graph.numRanks() != 0) continue;
      ref.req = p.req;
      const double t1 = now();
      ref.input = oneShot.buildInput(p.req);
      ref.buildInputSec = now() - t1;
    }
    setups.push_back(now() - t0);
  }

  unpin();  // the scheduler's threads inherit this thread's CPU set
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig cfg;
  cfg.threads = kSchedulerThreads;
  serve::Scheduler scheduler(service, cfg);
  tel.setEnabled(true);
  const std::vector<Slot> slots = serveStream(tel, stream, scheduler);
  scheduler.shutdown();
  tel.setEnabled(false);
  const double peakRss = peakRssMb();
  const serve::ArtifactCacheStats cacheStats = cache.stats();

  // Correctness, outside the timed window: every served mapping must equal
  // an uncached one-shot solve of the same request (RAHTM at min(4, nproc)
  // threads: the mapping is bit-identical for any thread count), and its
  // reported mcl must equal placementMcl recomputed on the mapping.
  for (auto& [k, ref] : refs) {
    serve::MapRequest req = ref.req;
    if (req.mapper == "rahtm") req.threads = opt.threads;
    ref.resp = oneShot.handleWithInput(req, ref.input);
    if (ref.resp.ok) {
      ref.mcl = rahtm::placementMcl(rahtm::Torus::torus(req.machine),
                                    ref.input.graph,
                                    ref.resp.mapping.nodeVector());
    }
  }
  std::vector<double> latency, queueSec, solveSec;
  std::map<std::string, std::vector<double>> solveByKey;
  const double start = slots.front().due;
  double lastDone = start;
  double lateMax = 0;
  std::size_t ok = 0;
  for (const Slot& slot : slots) {
    Checks c;
    const Reference& ref = refs.at(key(slot.req));
    c.expect(slot.accepted, slot.req.id + ": rejected");
    c.expect(!slot.accepted || slot.resp.ok,
             slot.req.id + ": " + slot.resp.error);
    c.expect(ref.resp.ok,
             slot.req.id + ": reference solve failed: " + ref.resp.error);
    if (slot.accepted && slot.resp.ok && ref.resp.ok) {
      c.expect(slot.resp.mapping == ref.resp.mapping,
               slot.req.id + " (" + key(slot.req) +
                   "): served mapping differs from the one-shot solve");
      c.expect(slot.resp.mcl == ref.mcl,
               slot.req.id + ": reported mcl != recomputed placementMcl");
      ++ok;
      latency.push_back(slot.done - slot.due);
      queueSec.push_back(slot.resp.queueSeconds);
      solveSec.push_back(slot.resp.solveSeconds);
      solveByKey[key(slot.req)].push_back(slot.resp.solveSeconds);
      lastDone = std::max(lastDone, slot.done);
    }
    lateMax = std::max(lateMax, slot.sent - slot.due);
    result.operation(c.problems());
  }
  // Solve time of one request of every class: the sum of the per-class
  // median in-service solve times.
  double classSolveSec = 0;
  for (const auto& [k, secs] : solveByKey) {
    classSolveSec += median(secs);
    std::cerr << "serve_mix: " << k << " served " << secs.size()
              << ", median solve " << median(secs) << " s\n";
  }

  // Quality and simulation of the RAHTM classes (one served response per
  // class): cycle and flow fidelity, repeated to check cycles repeat.
  std::vector<const Slot*> rahtmSlots;
  for (const serve::MapRequest& cls : rahtmClasses()) {
    const auto it = std::find_if(slots.begin(), slots.end(), [&](const Slot& s) {
      return key(s.req) == key(cls) && s.resp.ok;
    });
    if (it != slots.end()) rahtmSlots.push_back(&*it);
  }
  std::vector<std::vector<rahtm::simnet::Phase>> stages;
  for (const Slot* slot : rahtmSlots) {
    stages.push_back(evalStages(slot->req.benchmark,
                                refs.at(key(slot->req)).input.graph.numRanks()));
  }
  std::vector<double> mcl, hop, cycles, cycleSec, flowSec;
  std::vector<std::int64_t> firstCycles(rahtmSlots.size(), -1);
  double flitHops = 0;
  const std::vector<double> evalSec = repeatFor(kEvalSec, 3, [&] {
    for (std::size_t i = 0; i < rahtmSlots.size(); ++i) {
      const Slot& slot = *rahtmSlots[i];
      Checks c;
      const SimPair p = simulateBoth(
          tel, rahtm::Torus::torus(slot.req.machine), slot.resp.mapping,
          stages[i], firstCycles[i], c, key(slot.req));
      cycleSec.push_back(p.cycleSec);
      flowSec.push_back(p.flowSec);
      if (firstCycles[i] < 0) {
        firstCycles[i] = p.cycle.cycles;
        cycles.push_back(static_cast<double>(p.cycle.cycles));
        mcl.push_back(slot.resp.mcl);
        hop.push_back(slot.resp.hopBytes);
        flitHops += static_cast<double>(p.cycle.flitHops);
      }
      result.operation(c.problems());
    }
  });

  if (!opt.trace) {
    EndToEnd e;
    e.setupSec = median(setups);
    e.latencyP50 = median(latency);
    e.latencyP90 = quantile(latency, 0.9);
    e.servedPerSec = static_cast<double>(ok) / (lastDone - start);
    e.solveSec = classSolveSec;
    e.mcl = geomean(mcl);
    e.hopBytes = geomean(hop);
    e.simCycles = geomean(cycles);
    e.peakRssMb = peakRss;
    addEndToEnd(result, e);
    return;
  }

  // Tracing overhead of the serve path: one cheap request handled
  // uncached, alternately untraced and traced.
  std::vector<double> traced, untraced;
  const serve::MapRequest cheap = request({4, 4, 4, 4}, 4, "CG", "abcdet");
  for (int i = 0; i < 2 * kOverheadPairs; ++i) {
    tel.setEnabled(i % 2 == 1);
    auto span = tel.span("bench.map_service_handle");
    oneShot.handle(cheap);
    (i % 2 == 1 ? traced : untraced).push_back(span.close());
  }
  tel.setEnabled(false);

  Layers layers;
  std::vector<double> gen;
  for (const auto& [k, ref] : refs) gen.push_back(ref.buildInputSec);
  layers["workloads.gen_s"] = median(gen);
  RouteTableProbe routes;
  for (const Slot* slot : rahtmSlots) {
    const RouteTableProbe p = probeRouteTable(
        rahtm::Torus::torus(slot->req.machine), 3, 0.1, opt.seed);
    routes.buildSeconds += p.buildSeconds;
    routes.tableMb += p.tableMb;
    routes.entries += p.entries;
    routes.readsPerSec = p.readsPerSec;
  }
  layers["routing.table_build_s"] = routes.buildSeconds;
  layers["routing.table_mb"] = routes.tableMb;
  layers["routing.route_entries"] = routes.entries;
  layers["routing.reads_per_s"] = routes.readsPerSec;
  const std::vector<double> milpSpans = tel.spanSeconds("lp.milp.solve");
  const auto pivots = static_cast<double>(tel.counter("lp.simplex.pivots"));
  double milpTotal = 0;
  double timeLimited = 0;
  for (const double s : milpSpans) {
    milpTotal += s;
    if (s >= kMilpTimeLimitSec) ++timeLimited;
  }
  layers["lp.milp_solves"] = static_cast<double>(tel.counter("lp.milp.solves"));
  layers["lp.milp_nodes"] = static_cast<double>(tel.counter("lp.milp.nodes"));
  layers["lp.simplex_pivots"] = pivots;
  layers["lp.pivots_per_s"] = milpTotal > 0 ? pivots / milpTotal : 0;
  layers["lp.time_limited"] = timeLimited;
  layers["simnet.eval_s"] = median(evalSec);
  layers["simnet.cycle_s"] = median(cycleSec);
  layers["simnet.flow_s"] = median(flowSec);
  layers["simnet.flit_hops"] = flitHops;
  layers["serve.queue_s_p50"] = median(queueSec);
  layers["serve.queue_s_p90"] = quantile(queueSec, 0.9);
  layers["serve.solve_s_p50"] = median(solveSec);
  layers["serve.solve_s_p90"] = quantile(solveSec, 0.9);
  layers["serve.waves"] = static_cast<double>(tel.counter("rahtm.serve.waves"));
  layers["serve.rejected"] = static_cast<double>(scheduler.rejected());
  layers["serve.route_hits"] = static_cast<double>(cacheStats.routeHits);
  layers["serve.route_misses"] = static_cast<double>(cacheStats.routeMisses);
  layers["serve.incidence_hits"] = static_cast<double>(cacheStats.incidenceHits);
  layers["serve.incidence_misses"] =
      static_cast<double>(cacheStats.incidenceMisses);
  layers["serve.cache_mb"] = static_cast<double>(cacheStats.bytes) / (1 << 20);
  layers["obs.trace_overhead"] = traceOverhead(traced, untraced);
  layers["bench.generator_late_s_max"] = lateMax;
  addPerLayer(result, layers);
  addMemoryMetrics(result);
}

}  // namespace perfbench
