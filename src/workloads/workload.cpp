#include "workloads/workload.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "topology/torus.hpp"

namespace rahtm {

CommGraph Workload::commGraph() const {
  CommGraph g(ranks);
  std::size_t messages = 0;
  for (const simnet::Phase& phase : phases) messages += phase.size();
  g.reserve(messages);
  for (const simnet::Phase& phase : phases) {
    for (const simnet::Message& m : phase) {
      g.addFlow(m.src, m.dst, static_cast<Volume>(m.bytes));
    }
  }
  return g;
}

double Workload::bytesPerIteration() const {
  double total = 0;
  for (const simnet::Phase& phase : phases) {
    for (const simnet::Message& m : phase) {
      total += static_cast<double>(m.bytes);
    }
  }
  return total;
}

namespace {

std::int32_t isqrtExact(RankId ranks) {
  const auto q = static_cast<std::int32_t>(std::lround(std::sqrt(
      static_cast<double>(ranks))));
  RAHTM_REQUIRE(static_cast<RankId>(q) * q == ranks,
                "multipartition workload needs a square rank count");
  return q;
}

/// Shared BT/SP generator. The NPB multipartition scheme assigns each
/// process a diagonal family of cells; sweeps exchange cell faces with the
/// successor process of the sweep direction. On the q x q process grid the
/// successors are: x-sweep (i, j+1), y-sweep (i+1, j), z-sweep (i+1, j+1)
/// — all modulo q. Each sweep phase carries both the forward substitution
/// and the back substitution, so faces travel both directions.
Workload makeMultipartition(const std::string& name, RankId ranks,
                            std::int64_t faceBytes, int iterations,
                            double commFraction) {
  const std::int32_t q = isqrtExact(ranks);
  Workload w;
  w.name = name;
  w.ranks = ranks;
  w.iterations = iterations;
  w.commFraction = commFraction;
  w.logicalGrid = Shape{q, q};

  const Torus grid = Torus::torus(Shape{q, q});
  const auto rankAt = [&](std::int32_t i, std::int32_t j) {
    return static_cast<RankId>(grid.nodeId(
        Coord{((i % q) + q) % q, ((j % q) + q) % q}));
  };

  // Sweep successors in the process grid: (di, dj) per sweep direction.
  const std::int32_t sweeps[3][2] = {{0, 1}, {1, 0}, {1, 1}};
  for (const auto& s : sweeps) {
    simnet::Phase phase;
    for (std::int32_t i = 0; i < q; ++i) {
      for (std::int32_t j = 0; j < q; ++j) {
        const RankId self = rankAt(i, j);
        const RankId succ = rankAt(i + s[0], j + s[1]);
        if (self == succ) continue;  // q == 1 degenerate grid
        phase.push_back({self, succ, faceBytes});  // forward substitution
        phase.push_back({succ, self, faceBytes});  // back substitution
      }
    }
    w.phases.push_back(std::move(phase));
  }
  return w;
}

}  // namespace

Workload makeBT(RankId ranks, const NasParams& params) {
  // BT exchanges full 5-variable block faces; comm is ~35% of runtime at
  // the paper's scale (Fig. 9).
  return makeMultipartition("BT", ranks, params.messageBytes,
                            params.iterations, 0.35);
}

Workload makeSP(RankId ranks, const NasParams& params) {
  // SP's penta-diagonal solver ships thinner faces (scalar, not block) but
  // the phase structure matches BT; Fig. 9 shows ~35% comm as well.
  return makeMultipartition("SP", ranks, (params.messageBytes * 3) / 5,
                            params.iterations, 0.35);
}

Workload makeCG(RankId ranks, const NasParams& params) {
  RAHTM_REQUIRE(ranks >= 2 && isPowerOfTwo(ranks),
                "CG needs a power-of-two rank count");
  const int k = ilog2(ranks);
  const auto npcols = static_cast<std::int32_t>(1 << ((k + 1) / 2));
  const auto nprows = static_cast<std::int32_t>(1 << (k / 2));

  Workload w;
  w.name = "CG";
  w.ranks = ranks;
  w.iterations = params.iterations;
  w.commFraction = 0.70;  // Fig. 9: CG is >70% communication
  w.logicalGrid = Shape{nprows, npcols};

  // NPB layout: proc_row = me / npcols, proc_col = me % npcols.
  // Transpose partner (cg.f setup_submatrix_info):
  //   square grid:      exch_proc = (me % nprows) * npcols + me / nprows
  //   npcols == 2*nprows: pairs of columns transpose together.
  const auto transposePartner = [&](RankId me) -> RankId {
    if (npcols == nprows) {
      return (me % nprows) * npcols + me / nprows;
    }
    const RankId half = me / 2;
    return 2 * ((half % nprows) * nprows + half / nprows) +
           (me % 2);
  };

  // Phase 1: the q = A.p transpose exchange (the heavy one).
  simnet::Phase transpose;
  for (RankId me = 0; me < ranks; ++me) {
    const RankId partner = transposePartner(me);
    if (partner != me) {
      transpose.push_back({me, partner, params.messageBytes});
    }
  }
  w.phases.push_back(std::move(transpose));

  // Reduce phases: recursive halving across the row, log2(npcols) stages,
  // partner column = col XOR (npcols >> stage).
  for (std::int32_t stride = npcols / 2; stride >= 1; stride /= 2) {
    simnet::Phase reduce;
    for (RankId me = 0; me < ranks; ++me) {
      const std::int32_t col = me % npcols;
      const std::int32_t partnerCol = col ^ stride;
      const RankId partner = (me / npcols) * npcols + partnerCol;
      reduce.push_back({me, partner, params.messageBytes});
    }
    w.phases.push_back(std::move(reduce));
  }
  return w;
}

Workload makeHalo3d(const Shape& grid, std::int64_t messageBytes,
                    int iterations) {
  RAHTM_REQUIRE(grid.size() == 3, "makeHalo3d: need a 3D grid");
  const Torus g = Torus::torus(grid);
  Workload w;
  w.name = "Halo3D";
  w.ranks = static_cast<RankId>(g.numNodes());
  w.iterations = iterations;
  w.commFraction = 0.40;
  w.logicalGrid = grid;
  simnet::Phase phase;
  for (NodeId n = 0; n < g.numNodes(); ++n) {
    const Coord c = g.coordOf(n);
    for (std::size_t d = 0; d < 3; ++d) {
      for (const Dir dir : {Dir::Plus, Dir::Minus}) {
        const auto nb = g.neighbor(c, d, dir);
        if (!nb) continue;
        const NodeId m = g.nodeId(*nb);
        if (m == n) continue;
        phase.push_back({static_cast<RankId>(n), static_cast<RankId>(m),
                         messageBytes});
      }
    }
  }
  w.phases.push_back(std::move(phase));
  return w;
}

Workload makeRandomPairs(RankId ranks, std::int64_t messageBytes,
                         std::uint64_t seed, int iterations) {
  RAHTM_REQUIRE(ranks >= 2, "makeRandomPairs: need at least two ranks");
  Workload w;
  w.name = "Random";
  w.ranks = ranks;
  w.iterations = iterations;
  w.commFraction = 0.50;
  w.logicalGrid = Shape{static_cast<std::int32_t>(ranks)};
  std::vector<RankId> perm(static_cast<std::size_t>(ranks));
  for (RankId r = 0; r < ranks; ++r) perm[static_cast<std::size_t>(r)] = r;
  Rng rng(seed);
  rng.shuffle(perm);
  simnet::Phase phase;
  for (RankId r = 0; r < ranks; ++r) {
    const RankId partner = perm[static_cast<std::size_t>(r)];
    if (partner != r) phase.push_back({r, partner, messageBytes});
  }
  w.phases.push_back(std::move(phase));
  return w;
}

Workload makeNasByName(const std::string& name, RankId ranks,
                       const NasParams& params) {
  if (name == "BT" || name == "bt") return makeBT(ranks, params);
  if (name == "SP" || name == "sp") return makeSP(ranks, params);
  if (name == "CG" || name == "cg") return makeCG(ranks, params);
  throw ParseError("unknown NAS workload '" + name + "' (expected BT/SP/CG)");
}

}  // namespace rahtm
