#include "core/bisection_mapper.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "core/clustering.hpp"
#include "topology/subcube.hpp"

namespace rahtm {

namespace {

constexpr int kKlPasses = 8;  // KL improvement passes per bisection
constexpr std::uint64_t kSeed = 0xb15ec7;

/// Balanced min-cut bisection of the sub-graph induced by \p verts, by a
/// Kernighan–Lin swap refinement over an initial half/half split.
/// Returns the vertex sets of the two halves (equal sizes; |verts| even).
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> klBisect(
    const std::vector<std::size_t>& verts,
    const std::vector<std::vector<std::pair<std::size_t, double>>>& adj,
    Rng& rng) {
  const std::size_t n = verts.size();
  RAHTM_REQUIRE(n % 2 == 0, "klBisect: odd vertex count");

  // side[local index] in {0,1}; start from a random balanced split.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::vector<int> side(n, 0);
  for (std::size_t i = n / 2; i < n; ++i) side[order[i]] = 1;

  // Local index of each global vertex (SIZE_MAX if outside this region).
  std::vector<std::size_t> local;
  std::size_t maxVert = 0;
  for (const std::size_t v : verts) maxVert = std::max(maxVert, v);
  local.assign(maxVert + 1, SIZE_MAX);
  for (std::size_t i = 0; i < n; ++i) local[verts[i]] = i;

  // externalCost[i] - internalCost[i] = gain of moving i across.
  const auto gainOf = [&](std::size_t i) {
    double internal = 0, external = 0;
    for (const auto& [peer, w] : adj[verts[i]]) {
      if (peer >= local.size() || local[peer] == SIZE_MAX) continue;
      (side[local[peer]] == side[i] ? internal : external) += w;
    }
    return external - internal;
  };
  // gain[i] == gainOf(i) for the current sides: a swap changes the sides of
  // its pair only, so the pair's gains and their neighbours' are recomputed.
  std::vector<double> gain(n);
  for (std::size_t i = 0; i < n; ++i) gain[i] = gainOf(i);
  const auto refreshAround = [&](std::size_t i) {
    gain[i] = gainOf(i);
    for (const auto& [peer, w] : adj[verts[i]]) {
      if (peer < local.size() && local[peer] != SIZE_MAX) {
        gain[local[peer]] = gainOf(local[peer]);
      }
    }
  };
  // weightTo[b] = w(a, b) while a's b-scan runs: summed in a's adjacency
  // order from zero, as a scan of that list for b would, and zeroed after.
  std::vector<double> weightTo(n, 0.0);
  const auto fillWeights = [&](std::size_t a, bool clear) {
    for (const auto& [peer, w] : adj[verts[a]]) {
      if (peer >= local.size() || local[peer] == SIZE_MAX) continue;
      double& cell = weightTo[local[peer]];
      cell = clear ? 0.0 : cell + w;
    }
  };

  for (int pass = 0; pass < kKlPasses; ++pass) {
    // Greedy KL pass: repeatedly take the best positive-gain swap.
    bool improved = false;
    for (std::size_t a = 0; a < n; ++a) {
      if (side[a] != 0) continue;
      fillWeights(a, false);
      for (std::size_t b = 0; b < n; ++b) {
        if (side[b] != 1) continue;
        // Swap gain = gain(a) + gain(b) - 2*w(a,b).
        const double swapGain = gain[a] + gain[b] - 2 * weightTo[b];
        if (swapGain > 1e-12) {
          side[a] = 1;
          side[b] = 0;
          refreshAround(a);
          refreshAround(b);
          improved = true;
          break;  // sides changed; restart b-scan with fresh gains
        }
      }
      fillWeights(a, true);
    }
    if (!improved) break;
  }

  std::pair<std::vector<std::size_t>, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < n; ++i) {
    (side[i] == 0 ? out.first : out.second).push_back(verts[i]);
  }
  return out;
}

}  // namespace

RecursiveBisectionMapper::RecursiveBisectionMapper(Shape logicalGrid)
    : logicalGrid_(std::move(logicalGrid)) {}

Mapping RecursiveBisectionMapper::map(const CommGraph& graph,
                                      const Torus& topo, int concentration) {
  const RankId ranks = graph.numRanks();
  RAHTM_REQUIRE(ranks == topo.numNodes() * concentration,
                "RecursiveBisectionMapper: ranks != nodes * concentration");
  for (std::size_t d = 0; d < topo.ndims(); ++d) {
    RAHTM_REQUIRE(isPowerOfTwo(topo.extent(d)),
                  "RecursiveBisectionMapper: extents must be powers of two");
  }

  Shape grid = logicalGrid_;
  if (grid.empty()) grid = Shape{static_cast<std::int32_t>(ranks)};
  const TilingResult tiling = bestTiling(graph, grid, concentration);
  const CommGraph& g = tiling.coarseGraph;
  const auto n = static_cast<std::size_t>(g.numRanks());

  std::vector<std::vector<std::pair<std::size_t, double>>> adj(n);
  for (const Flow& f : g.undirectedFlows()) {
    adj[static_cast<std::size_t>(f.src)].push_back(
        {static_cast<std::size_t>(f.dst), f.bytes});
    adj[static_cast<std::size_t>(f.dst)].push_back(
        {static_cast<std::size_t>(f.src), f.bytes});
  }

  Rng rng(kSeed);
  std::vector<NodeId> place(n, kInvalidNode);

  // Recursive lock-step bisection of (machine block, cluster set).
  struct Frame {
    Coord origin;
    Shape extent;
    std::vector<std::size_t> verts;
  };
  std::vector<Frame> stack;
  {
    Frame root;
    root.origin = Coord(topo.ndims(), 0);
    root.extent = topo.shape();
    root.verts.resize(n);
    std::iota(root.verts.begin(), root.verts.end(), 0);
    stack.push_back(std::move(root));
  }
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    std::int64_t cells = 1;
    for (std::size_t d = 0; d < f.extent.size(); ++d) cells *= f.extent[d];
    RAHTM_REQUIRE(cells == static_cast<std::int64_t>(f.verts.size()),
                  "bisection: block/cluster count mismatch");
    if (cells == 1) {
      place[f.verts[0]] =
          topo.nodeId(f.origin);
      continue;
    }
    // Split along the largest remaining dimension.
    std::size_t dim = 0;
    for (std::size_t d = 1; d < f.extent.size(); ++d) {
      if (f.extent[d] > f.extent[dim]) dim = d;
    }
    auto halves = klBisect(f.verts, adj, rng);

    Frame lo, hi;
    lo.extent = hi.extent = f.extent;
    lo.extent[dim] /= 2;
    hi.extent[dim] /= 2;
    lo.origin = f.origin;
    hi.origin = f.origin;
    hi.origin[dim] += lo.extent[dim];
    lo.verts = std::move(halves.first);
    hi.verts = std::move(halves.second);
    stack.push_back(std::move(lo));
    stack.push_back(std::move(hi));
  }

  Mapping m(ranks);
  std::vector<int> nextSlot(static_cast<std::size_t>(topo.numNodes()), 0);
  for (RankId r = 0; r < ranks; ++r) {
    const auto cluster =
        static_cast<std::size_t>(tiling.clusterOf[static_cast<std::size_t>(r)]);
    const NodeId node = place[cluster];
    m.assign(r, node, nextSlot[static_cast<std::size_t>(node)]++);
  }
  return m;
}

}  // namespace rahtm
