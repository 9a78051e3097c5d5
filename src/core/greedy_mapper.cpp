#include "core/greedy_mapper.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "core/clustering.hpp"
#include "topology/offset_table.hpp"

namespace rahtm {

GreedyHopBytesMapper::GreedyHopBytesMapper(Shape logicalGrid)
    : logicalGrid_(std::move(logicalGrid)) {}

Mapping GreedyHopBytesMapper::map(const CommGraph& graph, const Torus& topo,
                                  int concentration) {
  const RankId ranks = graph.numRanks();
  RAHTM_REQUIRE(ranks == topo.numNodes() * concentration,
                "GreedyHopBytesMapper: ranks != nodes * concentration");

  Shape grid = logicalGrid_;
  if (grid.empty()) grid = Shape{static_cast<std::int32_t>(ranks)};

  // Concentration clustering: same tile search as RAHTM phase 1 so the
  // comparison isolates the placement objective, not the clustering.
  const TilingResult tiling = bestTiling(graph, grid, concentration);
  const CommGraph& g = tiling.coarseGraph;
  const auto n = static_cast<std::size_t>(g.numRanks());

  // Undirected volume between cluster pairs.
  std::vector<std::vector<std::pair<std::size_t, double>>> adj(n);
  for (const Flow& f : g.undirectedFlows()) {
    adj[static_cast<std::size_t>(f.src)].push_back(
        {static_cast<std::size_t>(f.dst), f.bytes});
    adj[static_cast<std::size_t>(f.dst)].push_back(
        {static_cast<std::size_t>(f.src), f.bytes});
  }
  std::vector<double> totalVolume(n, 0);
  for (std::size_t c = 0; c < n; ++c) {
    for (const auto& [peer, vol] : adj[c]) totalVolume[c] += vol;
  }

  const OffsetTable offsets(topo);
  std::vector<NodeId> place(n, kInvalidNode);
  std::vector<bool> nodeUsed(static_cast<std::size_t>(topo.numNodes()), false);
  std::vector<double> attraction(n, 0);  // volume toward placed clusters
  std::vector<bool> placed(n, false);

  for (std::size_t step = 0; step < n; ++step) {
    // Next cluster: max attraction to the placed set; first step (and any
    // disconnected component) falls back to max total volume.
    std::size_t pick = SIZE_MAX;
    for (std::size_t c = 0; c < n; ++c) {
      if (placed[c]) continue;
      if (pick == SIZE_MAX || attraction[c] > attraction[pick] ||
          (attraction[c] == attraction[pick] &&
           totalVolume[c] > totalVolume[pick])) {
        pick = c;
      }
    }

    // Best free node by hop-bytes increment toward placed peers.
    NodeId bestNode = kInvalidNode;
    double bestCost = std::numeric_limits<double>::infinity();
    for (NodeId v = 0; v < topo.numNodes(); ++v) {
      if (nodeUsed[static_cast<std::size_t>(v)]) continue;
      double cost = 0;
      for (const auto& [peer, vol] : adj[pick]) {
        if (!placed[peer]) continue;
        cost += vol * static_cast<double>(offsets.distance(v, place[peer]));
      }
      if (cost < bestCost) {
        bestCost = cost;
        bestNode = v;
      }
    }
    RAHTM_REQUIRE(bestNode != kInvalidNode, "GreedyHopBytesMapper: no node");
    place[pick] = bestNode;
    nodeUsed[static_cast<std::size_t>(bestNode)] = true;
    placed[pick] = true;
    for (const auto& [peer, vol] : adj[pick]) {
      if (!placed[peer]) attraction[peer] += vol;
    }
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
