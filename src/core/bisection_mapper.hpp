#pragma once
/// \file bisection_mapper.hpp
/// Recursive-bisection mapping — the classic graph-partitioner approach
/// (Chaco-style) the paper cites as limited prior art (§IV mentions Chaco
/// "handles 3 dimensions at most"; this implementation handles any of our
/// torus dimensionalities, but remains routing-unaware).
///
/// Algorithm: recursively bisect the machine along its largest dimension
/// and, in lock step, bisect the (cluster) communication graph with a
/// Kernighan–Lin / Fiduccia–Mattheyses-style min-cut pass, assigning each
/// graph half to a machine half. The objective at every split is the cut
/// volume — a bandwidth-motivated but routing-oblivious criterion, which
/// makes this the strongest "traditional" baseline in the roster.

#include "mapping/mapping.hpp"

namespace rahtm {

class RecursiveBisectionMapper final : public TaskMapper {
 public:
  /// \p logicalGrid optionally names the rank-grid geometry used for the
  /// concentration tiling (empty: 1D row of ranks).
  explicit RecursiveBisectionMapper(Shape logicalGrid = {});

  Mapping map(const CommGraph& graph, const Torus& topo,
              int concentration) override;
  std::string name() const override { return "RCB"; }

 private:
  Shape logicalGrid_;
};

}  // namespace rahtm
