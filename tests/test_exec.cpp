// Tests for the deterministic fork-join execution layer and the pipeline's
// determinism contract: any thread count must produce bit-identical
// mappings (pre-split RNG streams, index-addressed result slots, ordered
// reductions).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/rahtm.hpp"
#include "core/subproblem.hpp"
#include "exec/spin_barrier.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "topology/torus.hpp"
#include "workloads/workload.hpp"

namespace rahtm {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.numThreads(), 4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallelFor(hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SerialPoolRunsInline) {
  exec::ThreadPool pool(1);
  EXPECT_EQ(pool.numThreads(), 1);
  std::vector<int> order;
  pool.parallelFor(8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // safe: no workers exist
  });
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, PropagatesTaskException) {
  exec::ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallelFor(16,
                                [&](std::size_t i) {
                                  ran.fetch_add(1);
                                  if (i == 5) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Remaining tasks still execute (no partial-result slots left unwritten).
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  exec::ThreadPool pool(4);
  std::vector<std::atomic<int>> inner(8 * 8);
  for (auto& c : inner) c.store(0);
  pool.parallelFor(8, [&](std::size_t i) {
    pool.parallelFor(8, [&](std::size_t j) {
      inner[i * 8 + j].fetch_add(1);
    });
  });
  for (const auto& c : inner) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossRegions) {
  exec::ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.parallelFor(10, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(exec::ThreadPool::resolveThreads(3), 3);
  EXPECT_EQ(exec::ThreadPool::resolveThreads(-2), 1);
  EXPECT_GE(exec::ThreadPool::resolveThreads(0), 1);
  EXPECT_LE(exec::ThreadPool::resolveThreads(0), exec::kMaxThreads);
  EXPECT_EQ(exec::ThreadPool::resolveThreads(exec::kMaxThreads),
            exec::kMaxThreads);
  // The pool's backstop: resolveThreads runs before any worker starts.
  EXPECT_THROW(exec::ThreadPool::resolveThreads(exec::kMaxThreads + 1),
               PreconditionError);
}

/// \p fn must throw a ParseError whose message names \p source.
template <typename Fn>
void expectRejected(Fn fn, const std::string& source) {
  try {
    fn();
    ADD_FAILURE() << source << ": accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(source), std::string::npos)
        << e.what();
  }
}

TEST(ThreadPool, ThreadCountsFromOutsideAreBounded) {
  EXPECT_EQ(exec::checkedThreads(0, "x"), 0);
  EXPECT_EQ(exec::checkedThreads(exec::kMaxThreads, "x"), exec::kMaxThreads);
  EXPECT_EQ(exec::parseThreads("4", "--threads"), 4);
  for (const std::int64_t bad :
       {std::int64_t{-1}, std::int64_t{exec::kMaxThreads} + 1,
        std::int64_t{4294967297}, INT64_MIN}) {
    expectRejected([bad] { exec::checkedThreads(bad, "--sim-threads"); },
                   "--sim-threads");
  }
  // Values that a cast to int would wrap or a clamp would hide.
  for (const char* bad : {"4294967297", "-2", "-5", "257", "abc", "", "1.5",
                          "99999999999999999999"}) {
    expectRejected([bad] { exec::parseThreads(bad, "--threads"); },
                   "--threads");
  }
}

TEST(ThreadPool, ThreadsFromEnv) {
  const char* old = std::getenv("RAHTM_THREADS");
  const std::string saved = old == nullptr ? "" : old;
  ::setenv("RAHTM_THREADS", "6", 1);
  EXPECT_EQ(exec::threadsFromEnv(), 6);
  for (const char* bad : {"garbage", "-1", "4294967297"}) {
    ::setenv("RAHTM_THREADS", bad, 1);
    expectRejected([] { exec::threadsFromEnv(); }, "RAHTM_THREADS");
  }
  ::unsetenv("RAHTM_THREADS");
  EXPECT_EQ(exec::threadsFromEnv(), 1);
  if (old != nullptr) ::setenv("RAHTM_THREADS", saved.c_str(), 1);
}

TEST(SpinBarrier, SynchronizesAllParticipantsEachPhase) {
  // 4 threads, many phases: every thread writes its slot before the
  // barrier; after crossing, every thread must observe all 4 writes of the
  // current phase (the happens-before edge the simulator's shard/mailbox
  // handoff relies on).
  constexpr int kThreads = 4;
  constexpr int kPhases = 200;
  exec::SpinBarrier barrier(kThreads);
  std::vector<int> slots(kThreads, -1);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int p = 0; p < kPhases; ++p) {
        slots[static_cast<std::size_t>(t)] = p;
        barrier.arriveAndWait();
        for (int u = 0; u < kThreads; ++u) {
          if (slots[static_cast<std::size_t>(u)] != p) failures.fetch_add(1);
        }
        barrier.arriveAndWait();  // keep phases from overlapping
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SpinBarrier, SingleParticipantNeverBlocks) {
  exec::SpinBarrier barrier(1);
  for (int i = 0; i < 1000; ++i) barrier.arriveAndWait();
  EXPECT_EQ(barrier.participants(), 1);
}

TEST(ThreadPool, TryGangRunsOnDistinctThreads) {
  exec::ThreadPool pool(4);
  exec::SpinBarrier barrier(4);
  std::vector<std::thread::id> ids(4);
  // Each gang member records its id and waits for the other three — this
  // only terminates if four *distinct* threads really participate.
  ASSERT_TRUE(pool.tryGang(4, [&](std::size_t w) {
    ids[w] = std::this_thread::get_id();
    barrier.arriveAndWait();
  }));
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(ThreadPool, TryGangRefusesWhenConcurrencyUnavailable) {
  exec::ThreadPool pool(2);
  // Wider than the pool: must refuse rather than inline.
  EXPECT_FALSE(pool.tryGang(3, [](std::size_t) {}));
  // From inside a parallel region the gang would run inline and deadlock
  // on itself; tryGang must detect this and refuse without running.
  std::atomic<int> refused{0};
  std::atomic<int> ran{0};
  pool.parallelFor(2, [&](std::size_t) {
    if (!pool.tryGang(2, [&](std::size_t) { ran.fetch_add(1); })) {
      refused.fetch_add(1);
    }
  });
  EXPECT_EQ(refused.load(), 2);
  EXPECT_EQ(ran.load(), 0);
  // Afterwards the pool is idle again and a gang succeeds.
  EXPECT_TRUE(pool.tryGang(2, [](std::size_t) {}));
}

// Inside a region every parallelFor on a new pool runs inline and tryGang
// refuses, so such a pool starts no workers: one per solve of a served
// request would otherwise start and join up to 255 idle threads.
TEST(ThreadPool, PoolBuiltInsideARegionStartsNoWorkers) {
  exec::ThreadPool outer(2);
  std::vector<int> width(2, 0);
  std::atomic<int> foreign{0};
  outer.parallelFor(2, [&](std::size_t i) {
    exec::ThreadPool inner(4);
    width[i] = inner.numThreads();
    const std::thread::id self = std::this_thread::get_id();
    inner.parallelFor(3, [&](std::size_t) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
    });
    // The bound is checked all the same.
    EXPECT_THROW(exec::ThreadPool(exec::kMaxThreads + 1), PreconditionError);
  });
  EXPECT_EQ(width, (std::vector<int>{1, 1}));
  EXPECT_EQ(foreign.load(), 0);
  // A gang of two is a region too; a gang of one runs outside any region,
  // where a pool starts its workers.
  ASSERT_TRUE(outer.tryGang(2, [&](std::size_t i) {
    width[i] = exec::ThreadPool(4).numThreads();
  }));
  EXPECT_EQ(width, (std::vector<int>{1, 1}));
  ASSERT_TRUE(outer.tryGang(1, [&](std::size_t i) {
    width[i] = exec::ThreadPool(3).numThreads();
  }));
  EXPECT_EQ(width[0], 3);
  EXPECT_EQ(exec::ThreadPool(3).numThreads(), 3);
}

TEST(ThreadPool, UtilizationGaugeRecorded) {
  obs::MetricsRegistry reg;
  obs::setMetrics(&reg);
  {
    exec::ThreadPool pool(2);
    pool.parallelFor(8, [](std::size_t) {
      volatile double x = 0;
      for (int i = 0; i < 20000; ++i) x = x + 1.0;
    });
  }
  obs::setMetrics(nullptr);
  const obs::Counter* tasks = reg.findCounter("exec.pool.tasks");
  ASSERT_NE(tasks, nullptr);
  EXPECT_EQ(tasks->value(), 8);
  EXPECT_EQ(reg.findCounter("exec.pool.regions")->value(), 1);
}

// ---- Pipeline determinism ---------------------------------------------------

RahtmConfig annealHeavyConfig() {
  RahtmConfig cfg;
  // Force annealing everywhere so the parallel-restart path is exercised.
  cfg.subproblem.milpMaxVerts = 0;
  cfg.subproblem.exhaustiveMaxVerts = 0;
  cfg.subproblem.annealRestarts = 4;
  cfg.subproblem.annealIters = 2000;
  cfg.merge.beamWidth = 8;
  return cfg;
}

TEST(ExecDeterminism, ThreadedMappingIsBitIdenticalToSerial) {
  const Torus t = Torus::torus(Shape{2, 2, 2, 2});  // 16 nodes, 2 levels
  for (const char* name : {"CG", "BT"}) {
    const Workload w = makeNasByName(name, 64);
    RahtmMapper serial(annealHeavyConfig());
    RahtmMapper threaded(annealHeavyConfig());
    threaded.config().numThreads = 4;
    const Mapping m1 = serial.mapWorkload(w, t, 4);
    const Mapping m4 = threaded.mapWorkload(w, t, 4);
    EXPECT_EQ(m1.nodeVector(), m4.nodeVector()) << name;
    EXPECT_DOUBLE_EQ(serial.stats().rootObjective,
                     threaded.stats().rootObjective);
    EXPECT_EQ(serial.stats().subproblemsSolved,
              threaded.stats().subproblemsSolved);
    EXPECT_EQ(serial.stats().refineSwaps, threaded.stats().refineSwaps);
  }
}

TEST(ExecDeterminism, DefaultPortfolioAlsoBitIdentical) {
  // Mixed portfolio (exhaustive leaves + anneal) across several seeds.
  const Torus t = Torus::torus(Shape{4, 2, 2});
  const Workload w = makeSP(64);
  for (const std::uint64_t seed : {0x5eedULL, 1ULL, 42ULL}) {
    RahtmConfig cfg;
    cfg.subproblem.milpMaxVerts = 0;
    cfg.subproblem.annealRestarts = 3;
    cfg.subproblem.annealIters = 1500;
    cfg.subproblem.seed = seed;
    cfg.merge.beamWidth = 8;
    RahtmMapper serial(cfg);
    RahtmConfig cfg4 = cfg;
    cfg4.numThreads = 4;
    RahtmMapper threaded(cfg4);
    EXPECT_EQ(serial.mapWorkload(w, t, 4).nodeVector(),
              threaded.mapWorkload(w, t, 4).nodeVector())
        << "seed " << seed;
  }
}

TEST(ExecDeterminism, AnnealSearchPoolMatchesSerial) {
  const Torus cube = Torus::mesh(Shape{2, 2, 2});
  CommGraph g(8);
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const auto a = static_cast<RankId>(rng.nextBounded(8));
    const auto b = static_cast<RankId>(rng.nextBounded(8));
    if (a != b) g.addFlow(a, b, 1 + static_cast<double>(rng.nextBounded(50)));
  }
  SubproblemConfig cfg;
  cfg.annealRestarts = 5;
  cfg.annealIters = 3000;
  const SubproblemSolution serial = annealSearch(g, cube, cfg, nullptr);
  exec::ThreadPool pool(4);
  const SubproblemSolution threaded = annealSearch(g, cube, cfg, &pool);
  EXPECT_EQ(serial.vertexOf, threaded.vertexOf);
  EXPECT_DOUBLE_EQ(serial.objective, threaded.objective);
  EXPECT_EQ(serial.iterations, threaded.iterations);
}

}  // namespace
}  // namespace rahtm
