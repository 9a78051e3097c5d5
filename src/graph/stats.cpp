#include "graph/stats.hpp"

#include "common/error.hpp"
#include "topology/offset_table.hpp"

namespace rahtm {

GraphStats computeStats(const CommGraph& g) {
  GraphStats s;
  s.ranks = g.numRanks();
  s.flows = g.numFlows();
  s.totalVolume = g.totalVolume();
  s.maxDegree = g.maxDegree();
  s.avgVolumePerFlow = s.flows == 0 ? 0 : s.totalVolume / static_cast<double>(s.flows);
  return s;
}

double hopBytes(const CommGraph& g, const Torus& t,
                const std::vector<NodeId>& nodeOfRank) {
  RAHTM_REQUIRE(nodeOfRank.size() >= static_cast<std::size_t>(g.numRanks()),
                "hopBytes: placement too small");
  const OffsetTable offsets(t);
  double hb = 0;
  for (const Flow& f : g.flows()) {
    const NodeId u = nodeOfRank[static_cast<std::size_t>(f.src)];
    const NodeId v = nodeOfRank[static_cast<std::size_t>(f.dst)];
    RAHTM_REQUIRE(u >= 0 && v >= 0, "hopBytes: unmapped rank");
    hb += f.bytes * static_cast<double>(offsets.distance(u, v));
  }
  return hb;
}

double avgWeightedHops(const CommGraph& g, const Torus& t,
                       const std::vector<NodeId>& nodeOfRank) {
  const Volume total = g.totalVolume();
  if (total == 0) return 0;
  return hopBytes(g, t, nodeOfRank) / total;
}

}  // namespace rahtm
