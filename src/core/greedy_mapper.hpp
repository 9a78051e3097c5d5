#pragma once
/// \file greedy.hpp
/// Routing-unaware greedy mapping — the hop-bytes heuristic family that
/// §II-B/§III-A argue against. Included as a literature baseline: it is the
/// canonical "topology-aware but routing-oblivious" approach (greedy
/// connectivity-ordered placement, as in generic topology-mapping tools).
///
/// The algorithm: group ranks into node-sized clusters (same concentration
/// tiling as RAHTM phase 1), then place clusters one at a time — always the
/// cluster with the largest communication volume to already-placed clusters
/// — onto the free node minimizing the *hop-bytes* increment.

#include "mapping/mapping.hpp"

namespace rahtm {

class GreedyHopBytesMapper final : public TaskMapper {
 public:
  /// \p logicalGrid optionally names the rank-grid geometry used for the
  /// concentration tiling (empty: 1D row of ranks).
  explicit GreedyHopBytesMapper(Shape logicalGrid = {});

  Mapping map(const CommGraph& graph, const Torus& topo,
              int concentration) override;
  std::string name() const override { return "GreedyHB"; }

 private:
  Shape logicalGrid_;
};

}  // namespace rahtm
