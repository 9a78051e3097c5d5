/// \file test_serve.cpp
/// The mapping-as-a-service stack: artifact cache (hit/miss accounting,
/// its byte bound and budget rule, cross-thread build memoization), service
/// request handling and response scoring, scheduler admission, backpressure
/// and work-conserving dispatch, wire protocol round-trips — and the
/// headline contract, served mappings bit-identical to serial one-shot runs
/// whether artifacts come from the cache or are built locally.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "obs/json_reader.hpp"
#include "obs/mem.hpp"
#include "routing/oblivious.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/protocol.hpp"
#include "serve/scheduler.hpp"
#include "serve/service.hpp"
#include "topology/torus.hpp"

namespace rahtm {
namespace {

serve::MapRequest cgRequest(Shape machine, int concentration,
                            std::int64_t bytes = 4096) {
  serve::MapRequest req;
  req.machine = std::move(machine);
  req.concentration = concentration;
  req.benchmark = "CG";
  req.messageBytes = bytes;
  req.leafMilpVerts = 4;  // tight MILP budget keeps solves TSan-friendly
  return req;
}

// ---- ArtifactCache --------------------------------------------------------

TEST(ArtifactCache, TopologyKeyDistinguishesShapes) {
  const Torus a = Torus::torus({4, 4, 2});
  const Torus b = Torus::torus({4, 2, 4});
  EXPECT_EQ(serve::ArtifactCache::topologyKey(a),
            serve::ArtifactCache::topologyKey(a));
  EXPECT_NE(serve::ArtifactCache::topologyKey(a),
            serve::ArtifactCache::topologyKey(b));
}

TEST(ArtifactCache, RouteTableSharedAndContentIdentical) {
  serve::ArtifactCache cache;
  const Torus topo = Torus::torus({2, 2, 2});
  const auto first = cache.routeTable(topo);
  const auto second = cache.routeTable(topo);
  EXPECT_EQ(first.get(), second.get());

  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.routeMisses, 1);
  EXPECT_EQ(s.routeHits, 1);
  EXPECT_GT(s.bytes, 0);

  // Cached contents match a locally built table span for span.
  const auto local = RouteTable::buildFull(topo);
  ASSERT_EQ(first->entryCount(), local->entryCount());
  const NodeId n = static_cast<NodeId>(topo.numNodes());
  for (NodeId src = 0; src < n; ++src) {
    for (NodeId dst = 0; dst < n; ++dst) {
      const RouteTable::Span a = first->find(src, dst);
      const RouteTable::Span b = local->find(src, dst);
      ASSERT_EQ(a.size, b.size);
      for (std::size_t k = 0; k < a.size; ++k) {
        EXPECT_EQ(a.channel(k), b.channel(k));
        EXPECT_EQ(a.fracs[k], b.fracs[k]);
        EXPECT_EQ(a.multiplicity(k), b.multiplicity(k));
      }
    }
  }
}

TEST(ArtifactCache, CachedTableOutlivesCallerTopology) {
  // The regression that motivated RouteTable owning its Torus: the first
  // caller's topology dies before the second caller hits the cache.
  serve::ArtifactCache cache;
  {
    const Torus topo = Torus::torus({2, 2, 2});
    cache.routeTable(topo);
  }
  const Torus again = Torus::torus({2, 2, 2});
  const auto table = cache.routeTable(again);
  EXPECT_EQ(cache.stats().routeHits, 1);
  EXPECT_EQ(table->topology().numNodes(), again.numNodes());
  EXPECT_GT(table->find(0, 1).size, 0u);
}

TEST(ArtifactCache, IncidenceKeyedByGraphContent) {
  serve::ArtifactCache cache;
  CommGraph g1(4);
  g1.addFlow(0, 1, 100);
  g1.addFlow(2, 3, 50);
  CommGraph same(4);
  same.addFlow(0, 1, 100);
  same.addFlow(2, 3, 50);
  CommGraph different(4);
  different.addFlow(0, 1, 100);
  different.addFlow(2, 3, 51);

  const auto a = cache.flowIncidence(g1);
  const auto b = cache.flowIncidence(same);
  const auto c = cache.flowIncidence(different);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.incidenceMisses, 2);
  EXPECT_EQ(s.incidenceHits, 1);
}

TEST(ArtifactCache, ForgetsEveryCompletedEntryPastItsBound) {
  const Torus t1 = Torus::torus({2, 2});
  const Torus t2 = Torus::torus({2, 2, 2});
  // Room for exactly the first table.
  serve::ArtifactCache cache(RouteTable::buildFull(t1)->footprintBytes());
  const auto a = cache.routeTable(t1);
  EXPECT_EQ(cache.routeTable(t1).get(), a.get());
  serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.routeHits, 1);
  EXPECT_EQ(s.evictions, 0);
  EXPECT_EQ(s.bytes, a->footprintBytes());

  // The second table takes the tally past the bound: both are forgotten.
  const auto b = cache.routeTable(t2);
  s = cache.stats();
  EXPECT_EQ(s.routeMisses, 2);
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(s.bytes, 0);
  // Returned artifacts stay valid (shared ownership) even though the index
  // dropped them.
  EXPECT_GT(a->find(0, 1).size, 0u);
  EXPECT_GT(b->find(0, 1).size, 0u);
  // Re-requesting misses and builds anew.
  EXPECT_NE(cache.routeTable(t1).get(), a.get());
  EXPECT_EQ(cache.stats().routeMisses, 3);
}

TEST(ArtifactCache, ConcurrentRequestsBuildOnce) {
  serve::ArtifactCache cache;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const RouteTable>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        const Torus local = Torus::torus({2, 2, 2, 2});
        results[static_cast<std::size_t>(i)] = cache.routeTable(local);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[0].get(), results[static_cast<std::size_t>(i)].get());
  }
  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_EQ(s.routeMisses, 1);
  EXPECT_EQ(s.routeHits, kThreads - 1);
}

// A client that varies only `bytes` adds an incidence per request that no
// later request reuses, and cached artifacts stay charged to the memory
// budget. Under an armed budget the cache forgets them once the accounted
// total is past half of it, so they never crowd out a request that fits.
TEST(ArtifactCache, BudgetedCacheKeepsServingDistinctIncidences) {
  obs::MemRegistry& mem = obs::MemRegistry::instance();
  // The first solve in a process charges the flight-recorder rings; take
  // them into the base before arming a budget just above it.
  ASSERT_TRUE(serve::MapService().handle(cgRequest({2, 2, 2}, 2)).ok);
  // A cold solve here accounts under 5 KiB, and each distinct incidence
  // left cached adds about 0.25 KiB: 48 requests would pass 12 KiB.
  mem.setBudgetBytes(mem.totalCurrentBytes() + 12 * 1024);
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  int served = 0;
  for (int i = 0; i < 48; ++i) {
    const serve::MapResponse resp =
        service.handle(cgRequest({2, 2, 2}, 2, 4096 + i));
    if (!resp.ok) {
      ADD_FAILURE() << "request " << i << ": " << resp.error;
      break;
    }
    ++served;
  }
  const serve::ArtifactCacheStats s = cache.stats();
  mem.setBudgetBytes(0);
  EXPECT_EQ(served, 48);
  EXPECT_GT(s.evictions, 0);
}

// ---- MapService -----------------------------------------------------------

// Errors name the failing source file from src/ on, never the absolute
// location of the checkout the daemon was built in.
TEST(MapService, ErrorsNameSourceFilesFromSrc) {
  serve::MapService service;
  serve::MapRequest req = cgRequest({3, 0}, 1);
  req.id = "bad-machine";
  const serve::MapResponse resp = service.handle(req);
  ASSERT_FALSE(resp.ok);
  EXPECT_EQ(resp.id, "bad-machine");
  EXPECT_EQ(resp.error.rfind("src/topology/torus.cpp:", 0), 0u) << resp.error;
  EXPECT_EQ(resp.error.find("/src/"), std::string::npos) << resp.error;
}

TEST(MapService, SolvesNamedWorkload) {
  serve::MapService service;
  serve::MapRequest req = cgRequest({2, 2, 2}, 2);
  req.id = "t1";
  const serve::MapResponse resp = service.handle(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.id, "t1");
  EXPECT_EQ(resp.ranks, 16);
  EXPECT_GT(resp.flows, 0);
  EXPECT_GT(resp.mcl, 0);
  EXPECT_TRUE(resp.hasRahtmStats);
  const Torus machine = Torus::torus(req.machine);
  EXPECT_TRUE(resp.mapping.validate(machine, req.concentration).empty());
}

TEST(MapService, UnknownMapperFailsCleanly) {
  serve::MapService service;
  serve::MapRequest req = cgRequest({2, 2}, 1);
  req.mapper = "bogus";
  const serve::MapResponse resp = service.handle(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error, "unknown mapper 'bogus'");
}

TEST(MapService, GraphRankMismatchFails) {
  serve::MapService service;
  serve::MapRequest req = cgRequest({2, 2}, 1);
  req.hasGraph = true;
  req.graph = CommGraph(3);  // machine wants 4
  const serve::MapResponse resp = service.handle(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("graph ranks"), std::string::npos);
}

// The response's MCL is read from the route table, not re-enumerated: it
// must equal placementMcl() bit for bit, cached and uncached, for every
// mapper on a 2-ary cube, a torus mixing extents 4 and 2, and a torus of
// odd extents.
TEST(MapService, ResponseMclIsPlacementMclBitForBit) {
  struct Machine {
    Shape shape;
    int concentration;
  };
  const Machine machines[] = {{{2, 2, 2}, 2}, {{4, 2, 2}, 1}, {{3, 4}, 3}};
  const char* const mappers[] = {"rahtm", "abcdet", "hilbert", "rht",
                                 "greedy", "rcb",   "random"};
  serve::ArtifactCache cache;
  serve::MapService cached(&cache);
  serve::MapService uncached;
  int compared = 0;
  for (const Machine& m : machines) {
    const Torus torus = Torus::torus(m.shape);
    const bool powerOfTwoExtents = std::all_of(
        m.shape.begin(), m.shape.end(), [](int k) { return isPowerOfTwo(k); });
    for (const char* benchmark : {"BT", "SP", "CG"}) {
      serve::MapRequest req = cgRequest(m.shape, m.concentration);
      req.benchmark = benchmark;
      // CG takes power-of-two rank counts only.
      if (req.benchmark == "CG" &&
          !isPowerOfTwo(torus.numNodes() * m.concentration)) {
        continue;
      }
      const serve::RequestInput input = uncached.buildInput(req);
      for (const char* mapper : mappers) {
        req.mapper = mapper;
        // RAHTM's hierarchy and recursive bisection take power-of-two
        // extents only.
        if ((req.mapper == "rahtm" || req.mapper == "rcb") &&
            !powerOfTwoExtents) {
          continue;
        }
        for (serve::MapService* service : {&cached, &uncached}) {
          const serve::MapResponse resp = service->handleWithInput(req, input);
          ASSERT_TRUE(resp.ok) << mapper << " " << benchmark << " on "
                               << torus.describe() << ": " << resp.error;
          const double want =
              placementMcl(torus, input.graph, resp.mapping.nodeVector());
          EXPECT_EQ(std::memcmp(&resp.mcl, &want, sizeof want), 0)
              << mapper << " " << benchmark << " on " << torus.describe()
              << ": " << resp.mcl << " != " << want;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 2 * (7 * 3 + 7 * 3 + 5 * 2));
}

// ---- Scheduler: served results vs serial one-shot -------------------------

TEST(Scheduler, ServedMappingsBitIdenticalToOneShot) {
  // Two distinct workloads (same topology, different message size) so the
  // cache serves shared route tables to concurrently solving requests with
  // distinct incidences in flight.
  const std::int64_t kBytes[] = {4096, 8192};
  serve::MapService oneShot;  // uncached, serial — the reference behavior
  std::vector<serve::MapResponse> reference;
  for (const std::int64_t b : kBytes) {
    reference.push_back(oneShot.handle(cgRequest({2, 2, 2}, 2, b)));
    ASSERT_TRUE(reference.back().ok) << reference.back().error;
  }

  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig cfg;
  cfg.threads = 4;
  serve::Scheduler sched(service, cfg);

  constexpr int kRepeats = 3;
  std::vector<std::future<serve::MapResponse>> futures;
  std::vector<std::size_t> refOf;
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t b = 0; b < 2; ++b) {
      serve::Scheduler::Ticket t =
          sched.submit(cgRequest({2, 2, 2}, 2, kBytes[b]));
      ASSERT_TRUE(t.accepted);
      futures.push_back(std::move(t.response));
      refOf.push_back(b);
    }
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const serve::MapResponse resp = futures[i].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.mapping, reference[refOf[i]].mapping)
        << "served mapping diverged from one-shot (request " << i << ")";
  }
  EXPECT_EQ(sched.completed(), futures.size());
  EXPECT_EQ(sched.errors(), 0u);
  const serve::ArtifactCacheStats s = cache.stats();
  EXPECT_GT(s.routeHits, 0);
  EXPECT_GT(s.incidenceHits, 0);
}

TEST(Scheduler, WarmRequestsSkipRouteBuilds) {
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  service.handle(cgRequest({2, 2, 2}, 2));  // cold: populates the cache
  const serve::ArtifactCacheStats cold = cache.stats();
  EXPECT_GT(cold.routeMisses, 0);
  const serve::MapResponse warm = service.handle(cgRequest({2, 2, 2}, 2));
  ASSERT_TRUE(warm.ok) << warm.error;
  const serve::ArtifactCacheStats after = cache.stats();
  EXPECT_EQ(after.routeMisses, cold.routeMisses);
  EXPECT_EQ(after.incidenceMisses, cold.incidenceMisses);
  EXPECT_GT(after.routeHits, cold.routeHits);
}

TEST(Scheduler, BackpressureRejectsWithRetryAfter) {
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig cfg;
  cfg.threads = 1;
  cfg.maxQueueDepth = 1;
  serve::Scheduler sched(service, cfg);

  constexpr int kSubmits = 32;
  std::vector<std::future<serve::MapResponse>> accepted;
  std::size_t rejected = 0;
  for (int i = 0; i < kSubmits; ++i) {
    serve::Scheduler::Ticket t = sched.submit(cgRequest({2, 2}, 1));
    if (t.accepted) {
      accepted.push_back(std::move(t.response));
    } else {
      ++rejected;
      EXPECT_GT(t.retryAfterSec, 0.0);
    }
  }
  // Solves take milliseconds, submissions microseconds: with depth 1 the
  // queue is saturated long before the first solve finishes.
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(sched.rejected(), rejected);
  EXPECT_EQ(sched.accepted(), accepted.size());
  for (auto& f : accepted) {
    const serve::MapResponse resp = f.get();
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_GE(resp.queueSeconds, 0.0);
  }
  sched.drain();
  EXPECT_EQ(sched.completed(), accepted.size());
}

// A request that solves for a while holds one serving thread; the requests
// queued behind it go to the other one instead of waiting for the solve.
TEST(Scheduler, LongSolveDoesNotHoldBackLaterRequests) {
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig cfg;
  cfg.threads = 2;
  serve::Scheduler sched(service, cfg);

  serve::Scheduler::Ticket slow = sched.submit(cgRequest({2, 2, 2}, 2));
  ASSERT_TRUE(slow.accepted);
  constexpr int kQuick = 12;
  std::vector<std::future<serve::MapResponse>> quick;
  for (int i = 0; i < kQuick; ++i) {
    serve::MapRequest req = cgRequest({4, 4}, 1);
    req.mapper = "abcdet";
    serve::Scheduler::Ticket t = sched.submit(req);
    ASSERT_TRUE(t.accepted);
    quick.push_back(std::move(t.response));
  }
  const serve::MapResponse slowResp = slow.response.get();
  ASSERT_TRUE(slowResp.ok) << slowResp.error;
  for (int i = 0; i < kQuick; ++i) {
    const serve::MapResponse resp = quick[static_cast<std::size_t>(i)].get();
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_LT(resp.queueSeconds, 0.5 * slowResp.solveSeconds)
        << "quick request " << i << " waited " << resp.queueSeconds
        << " s behind a " << slowResp.solveSeconds << " s solve";
  }
}

TEST(Scheduler, DrainAndShutdownServeEverythingQueued) {
  serve::ArtifactCache cache;
  serve::MapService service(&cache);
  serve::SchedulerConfig cfg;
  cfg.threads = 2;
  serve::Scheduler sched(service, cfg);
  const auto submitAll = [&](int n) {
    std::vector<std::future<serve::MapResponse>> futures;
    for (int i = 0; i < n; ++i) {
      serve::MapRequest req = cgRequest({4, 4}, 1);
      req.mapper = i % 2 == 0 ? "abcdet" : "hilbert";
      serve::Scheduler::Ticket t = sched.submit(req);
      EXPECT_TRUE(t.accepted);
      futures.push_back(std::move(t.response));
    }
    return futures;
  };

  // drain() returns once every accepted request has its response.
  std::vector<std::future<serve::MapResponse>> drained = submitAll(16);
  sched.drain();
  EXPECT_EQ(sched.completed(), 16);
  for (auto& f : drained) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok);
  }

  // shutdown() right after submitting still serves everything queued, and
  // refuses what comes after it.
  std::vector<std::future<serve::MapResponse>> queued = submitAll(16);
  sched.shutdown();
  EXPECT_EQ(sched.completed(), 32);
  EXPECT_EQ(sched.errors(), 0);
  for (auto& f : queued) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_TRUE(f.get().ok);
  }
  EXPECT_FALSE(sched.submit(cgRequest({4, 4}, 1)).accepted);
  EXPECT_EQ(sched.rejected(), 1);
}

// ---- Protocol -------------------------------------------------------------

TEST(Protocol, RequestDefaultsAndOverrides) {
  const serve::MapRequest minimal = serve::parseMapRequestLine(
      R"({"schema":"rahtm.serve.request/v1","machine":"2x2"})");
  EXPECT_EQ(minimal.machine, (Shape{2, 2}));
  EXPECT_EQ(minimal.concentration, 1);
  EXPECT_EQ(minimal.benchmark, "CG");
  EXPECT_EQ(minimal.mapper, "rahtm");
  EXPECT_FALSE(minimal.hasGraph);

  const serve::MapRequest full = serve::parseMapRequestLine(
      R"({"schema":"rahtm.serve.request/v1","id":"r9","machine":"4x4x2",)"
      R"("concentration":2,"benchmark":"BT","bytes":1024,"mapper":"greedy",)"
      R"("beam":16,"merge":false,"refine":false,"leaf_milp":4,"threads":3,)"
      R"("seed":7,"grid":"8x4",)"
      R"("graph":{"ranks":64,"flows":[[0,1,4096],[1,2,2048]]}})");
  EXPECT_EQ(full.id, "r9");
  EXPECT_EQ(full.machine, (Shape{4, 4, 2}));
  EXPECT_EQ(full.concentration, 2);
  EXPECT_EQ(full.messageBytes, 1024);
  EXPECT_EQ(full.mapper, "greedy");
  EXPECT_EQ(full.beamWidth, 16);
  EXPECT_FALSE(full.enableMerge);
  EXPECT_FALSE(full.finalRefinement);
  EXPECT_EQ(full.leafMilpVerts, 4);
  EXPECT_EQ(full.threads, 3);
  EXPECT_EQ(full.seed, 7u);
  EXPECT_EQ(full.grid, (Shape{8, 4}));
  ASSERT_TRUE(full.hasGraph);
  EXPECT_EQ(full.graph.numRanks(), 64);
  EXPECT_EQ(full.graph.flows().size(), 2u);
}

TEST(Protocol, MalformedRequestsThrow) {
  EXPECT_THROW(serve::parseMapRequestLine("{}"), ParseError);
  EXPECT_THROW(serve::parseMapRequestLine(
                   R"({"schema":"rahtm.serve.request/v1"})"),
               ParseError);  // no machine
  EXPECT_THROW(serve::parseMapRequestLine(
                   R"({"schema":"wrong/v0","machine":"2x2"})"),
               ParseError);
  EXPECT_THROW(
      serve::parseMapRequestLine(
          R"({"schema":"rahtm.serve.request/v1","machine":"2x2","beam":"x"})"),
      ParseError);
  // A beam keeps at least one partial merge.
  for (const char* beam : {"0", "-5", "4294967296"}) {
    EXPECT_THROW(serve::parseMapRequestLine(
                     std::string(R"({"schema":"rahtm.serve.request/v1",)") +
                     R"("machine":"2x2","beam":)" + beam + "}"),
                 ParseError)
        << "beam " << beam;
  }
  EXPECT_THROW(
      serve::parseMapRequestLine(
          R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)"
          R"("graph":{"ranks":4,"flows":[[0,1]]}})"),
      ParseError);
  // Numbers are checked before any cast: a non-integral, non-finite or
  // out-of-range value is a ParseError naming the member, never a
  // truncated or wrapped value (or undefined behaviour).
  const std::string head =
      R"({"schema":"rahtm.serve.request/v1","machine":"2x2",)";
  for (const auto& [member, body] : std::vector<std::pair<std::string, std::string>>{
           {"concentration", R"("concentration":4294967298})"},
           {"concentration", R"("concentration":2.5})"},
           {"concentration", R"("concentration":1e20})"},
           {"concentration", R"("concentration":-2147483649})"},
           {"bytes", R"("bytes":1e19})"},
           {"bytes", R"("bytes":4096.5})"},
           {"leaf_milp", R"("leaf_milp":4294967300})"},
           {"threads", R"("threads":1e300})"},
           {"threads", R"("threads":4294967297})"},
           {"threads", R"("threads":257})"},
           {"threads", R"("threads":-2})"},
           {"seed", R"("seed":-1})"},
           {"seed", R"("seed":18446744073709551616})"},
           {"seed", R"("seed":0.5})"},
           {"beam", R"("beam":64.5})"},
           {"graph.ranks",
            R"("graph":{"ranks":4294967300,"flows":[[0,1,8]]}})"},
           {"graph.ranks", R"("graph":{"ranks":4.5,"flows":[[0,1,8]]}})"},
           {"graph.flows src",
            R"("graph":{"ranks":4,"flows":[[1e19,1,8]]}})"},
           {"graph.flows dst",
            R"("graph":{"ranks":4,"flows":[[0,4294967297,8]]}})"},
           {"graph.flows dst", R"("graph":{"ranks":4,"flows":[[0,1.5,8]]}})"},
       }) {
    try {
      serve::parseMapRequestLine(head + body);
      ADD_FAILURE() << body << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + member + "'"),
                std::string::npos)
          << body << ": " << e.what();
    }
  }
  // Values at the edges of their types still parse.
  const serve::MapRequest ok = serve::parseMapRequestLine(
      head + R"("seed":18446744073709549568,"concentration":2147483647})");
  EXPECT_EQ(ok.seed, 18446744073709549568ull);
  EXPECT_EQ(ok.concentration, std::numeric_limits<int>::max());
}

// The reply to a request that fails to parse echoes its id, whether the
// parser rejects a member (beam 0) or the graph's own check does (a
// negative flow volume).
TEST(Protocol, ErrorRepliesEchoTheRequestId) {
  const std::string head = R"({"schema":"rahtm.serve.request/v1",)";
  using Case = std::pair<std::string, std::string>;
  for (const auto& [id, body] : std::vector<Case>{
           {"r1", R"("id":"r1","machine":"2x2","benchmark":"CG","beam":0})"},
           {"r2", R"("id":"r2","machine":"2x2",)"
                  R"("graph":{"ranks":4,"flows":[[0,1,-5]]}})"},
           {"r3", R"("machine":"2x2","id":"r3","beam":"x"})"},
           {"r4", R"("id":"r4","machine":"2x2","threads":100000})"},
       }) {
    try {
      serve::parseMapRequestLine(head + body);
      ADD_FAILURE() << body << " was accepted";
    } catch (const std::exception& e) {
      const serve::MapResponse resp = serve::parseFailureResponse(e);
      EXPECT_FALSE(resp.ok);
      EXPECT_EQ(resp.id, id) << e.what();
      EXPECT_NE(serve::mapResponseJson(resp).find("\"id\":\"" + id + "\""),
                std::string::npos);
    }
  }
  // A wrong schema still names the id; a line that is not an object has
  // none to echo.
  try {
    serve::parseMapRequestLine(R"({"schema":"wrong/v0","id":"r4"})");
    ADD_FAILURE() << "wrong schema was accepted";
  } catch (const std::exception& e) {
    EXPECT_EQ(serve::parseFailureResponse(e).id, "r4");
  }
  try {
    serve::parseMapRequestLine("[1,2]");
    ADD_FAILURE() << "an array was accepted";
  } catch (const std::exception& e) {
    EXPECT_EQ(serve::parseFailureResponse(e).id, "");
  }
}

TEST(Protocol, ResponseRoundTripValidates) {
  serve::MapService service;
  const serve::MapResponse resp = service.handle(cgRequest({2, 2, 2}, 1));
  ASSERT_TRUE(resp.ok) << resp.error;
  const std::string line = serve::mapResponseJson(resp);
  const obs::JsonValue doc = obs::parseJson(line);
  const std::vector<std::string> problems =
      serve::validateServeResponseJson(doc);
  EXPECT_TRUE(problems.empty())
      << (problems.empty() ? "" : problems.front());

  // The mapping array mirrors the in-memory mapping entry for entry.
  const obs::JsonValue* mapping = doc.find("mapping");
  ASSERT_NE(mapping, nullptr);
  ASSERT_EQ(mapping->array.size(),
            static_cast<std::size_t>(resp.mapping.numRanks()));
  for (RankId r = 0; r < resp.mapping.numRanks(); ++r) {
    const obs::JsonValue& e = mapping->array[static_cast<std::size_t>(r)];
    EXPECT_EQ(static_cast<NodeId>(e.array[0].number), resp.mapping.nodeOf(r));
    EXPECT_EQ(static_cast<int>(e.array[1].number), resp.mapping.slotOf(r));
  }

  // Omitting the mapping is valid too (bench clients skip the bulk).
  const std::string lean = serve::mapResponseJson(resp, false);
  EXPECT_TRUE(
      serve::validateServeResponseJson(obs::parseJson(lean)).empty());
  EXPECT_EQ(obs::parseJson(lean).find("mapping"), nullptr);
}

TEST(Protocol, ValidatorRejectsBrokenResponses) {
  EXPECT_FALSE(serve::validateServeResponseJson(
                   obs::parseJson(R"({"schema":"rahtm.serve.response/v1"})"))
                   .empty());
  EXPECT_FALSE(
      serve::validateServeResponseJson(obs::parseJson(R"(["not","object"])"))
          .empty());
}

}  // namespace
}  // namespace rahtm
