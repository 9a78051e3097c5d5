/// \file bench_micro.cpp
/// google-benchmark microbenchmarks of the performance-critical kernels:
/// the oblivious channel-load accumulation, the exhaustive leaf solve, the
/// simplex solver, the cycle-level simulator, the routing-oblivious
/// baseline mappers, the graph kernels under them and the orientation
/// machinery. These are the kernels whose cost determines the §V-B
/// optimization time.

#include <benchmark/benchmark.h>

#include "core/bisection_mapper.hpp"
#include "core/clustering.hpp"
#include "core/greedy_mapper.hpp"
#include "core/subproblem.hpp"
#include "lp/simplex.hpp"
#include "mapping/hilbert.hpp"
#include "mapping/permutation.hpp"
#include "routing/oblivious.hpp"
#include "simnet/simulator.hpp"
#include "topology/orientation.hpp"
#include "topology/presets.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace rahtm;

void BM_UniformMinimalAccumulate(benchmark::State& state) {
  const Torus t = bgqPartition512();
  ChannelLoadMap loads(t);
  const Coord src = t.coordOf(0);
  const Coord dst = t.coordOf(static_cast<NodeId>(t.numNodes() - 1));
  for (auto _ : state) {
    accumulateUniformMinimal(t, src, dst, 100.0, loads);
    benchmark::DoNotOptimize(loads.raw().data());
  }
}
BENCHMARK(BM_UniformMinimalAccumulate);

void BM_PlacementMclCold(benchmark::State& state) {
  const Torus t = Torus::torus(Shape{2, 2, 2});
  const Workload w = makeCG(8);
  const CommGraph g = w.commGraph();
  std::vector<NodeId> place(8);
  for (NodeId n = 0; n < 8; ++n) place[static_cast<std::size_t>(n)] = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(placementMcl(t, g, place));
  }
}
BENCHMARK(BM_PlacementMclCold);

void BM_ExhaustiveLeafSolve(benchmark::State& state) {
  const Torus cube = Torus::mesh(Shape{2, 2, 2});
  CommGraph g(8);
  for (RankId r = 0; r < 8; ++r) {
    g.addExchange(r, (r + 1) % 8, 10);
    g.addExchange(r, (r + 2) % 8, 5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exhaustiveSearch(g, cube, MapObjective::Mcl).objective);
  }
}
BENCHMARK(BM_ExhaustiveLeafSolve)->Unit(benchmark::kMillisecond);

void BM_SimplexTextbook(benchmark::State& state) {
  using namespace rahtm::lp;
  for (auto _ : state) {
    Model m;
    const VarId x = m.addContinuous("x", 0, infinity(), 3);
    const VarId y = m.addContinuous("y", 0, infinity(), 5);
    m.setObjective(Objective::Maximize);
    m.addConstraint("c1", {{x, 1}}, Sense::LessEq, 4);
    m.addConstraint("c2", {{y, 2}}, Sense::LessEq, 12);
    m.addConstraint("c3", {{x, 3}, {y, 2}}, Sense::LessEq, 18);
    benchmark::DoNotOptimize(solveLp(m).objective);
  }
}
BENCHMARK(BM_SimplexTextbook);

void BM_SimulatorPhase(benchmark::State& state) {
  const Torus t = torus32();
  const int c = 2;
  const Workload w = makeCG(static_cast<RankId>(t.numNodes() * c));
  DefaultMapper mapper;
  const Mapping m = mapper.map(w.commGraph(), t, c);
  simnet::SimConfig cfg;
  cfg.injectionBandwidth = 4;
  std::int64_t flits = 0;
  for (auto _ : state) {
    for (const simnet::Phase& phase : w.phases) {
      const auto r = simulatePhase(t, m, phase, cfg);
      flits += r.networkFlits;
      benchmark::DoNotOptimize(r.cycles);
    }
  }
  state.SetItemsProcessed(flits);
}
BENCHMARK(BM_SimulatorPhase)->Unit(benchmark::kMillisecond);

/// NAS benchmark of the baseline-mapper benchmarks: BT, SP, CG by argument.
const char* const kNas[] = {"BT", "SP", "CG"};

/// One map of 1024 ranks on the 4x4x4x4 torus at concentration 4, the
/// Fig. 10 evaluation's baseline-mapper size.
template <typename MakeMapper>
void runBaselineMap(benchmark::State& state, MakeMapper makeMapper) {
  const Torus t = Torus::torus(Shape{4, 4, 4, 4});
  const int c = 4;
  const char* name = kNas[state.range(0)];
  const Workload w =
      makeNasByName(name, static_cast<RankId>(t.numNodes() * c));
  const CommGraph g = w.commGraph();
  auto mapper = makeMapper(w);
  for (auto _ : state) {
    const Mapping m = mapper.map(g, t, c);
    benchmark::DoNotOptimize(m.nodeVector().data());
  }
  state.SetLabel(name);
}

void BM_GreedyMap(benchmark::State& state) {
  runBaselineMap(state, [](const Workload& w) {
    return GreedyHopBytesMapper(w.logicalGrid);
  });
}
BENCHMARK(BM_GreedyMap)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

void BM_BisectionMap(benchmark::State& state) {
  runBaselineMap(state, [](const Workload& w) {
    return RecursiveBisectionMapper(w.logicalGrid);
  });
}
BENCHMARK(BM_BisectionMap)->DenseRange(0, 2)->Unit(benchmark::kMillisecond);

/// The graph kernels every baseline request runs before its mapper: the
/// 1024-rank NAS graph of BT, SP or CG (by argument), built from its
/// messages, contracted by the best concentration-4 tiling, and viewed
/// undirected.
Workload nasWorkload(const benchmark::State& state) {
  return makeNasByName(kNas[state.range(0)], 1024);
}

void BM_CommGraphBuild(benchmark::State& state) {
  const Workload w = nasWorkload(state);
  for (auto _ : state) {
    const CommGraph g = w.commGraph();
    benchmark::DoNotOptimize(g.flows().data());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_CommGraphBuild)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

void BM_BestTiling(benchmark::State& state) {
  const Workload w = nasWorkload(state);
  const CommGraph g = w.commGraph();
  for (auto _ : state) {
    const TilingResult t = bestTiling(g, w.logicalGrid, 4);
    benchmark::DoNotOptimize(t.coarseGraph.flows().data());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_BestTiling)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

void BM_UndirectedFlows(benchmark::State& state) {
  const Workload w = nasWorkload(state);
  const CommGraph g = w.commGraph();
  for (auto _ : state) {
    const std::vector<Flow> und = g.undirectedFlows();
    benchmark::DoNotOptimize(und.data());
  }
  state.SetLabel(w.name);
}
BENCHMARK(BM_UndirectedFlows)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

void BM_EnumerateOrientations(benchmark::State& state) {
  const Shape shape{2, 2, 2, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(enumerateOrientations(shape).size());
  }
}
BENCHMARK(BM_EnumerateOrientations);

void BM_HilbertCurve(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hilbertIndexToCoords(i++ & 0xff, 2, 4));
  }
}
BENCHMARK(BM_HilbertCurve);

}  // namespace

BENCHMARK_MAIN();
