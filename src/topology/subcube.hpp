#pragma once
/// \file subcube.hpp
/// Axis-aligned sub-blocks of a torus. RAHTM's hierarchy decomposes the
/// machine into nested subcubes; each subproblem is solved on the subcube's
/// local mesh (the wraparound edges of the full torus do not exist inside a
/// proper sub-block, which is what makes the C3 minimality constraint of the
/// MILP valid — §III-C).

#include <vector>

#include "topology/torus.hpp"

namespace rahtm {

/// A view of the axis-aligned block [origin, origin + extent) of a parent
/// torus. Local coordinates are 0-based within the block.
class SubcubeView {
 public:
  SubcubeView(const Torus& parent, const Coord& origin, const Shape& extent);

  const Torus& parent() const { return *parent_; }
  const Coord& origin() const { return origin_; }
  const Shape& extent() const { return extent_; }
  std::int64_t numNodes() const;

  /// Local coordinate -> parent coordinate.
  Coord toParent(const Coord& local) const;
  /// Parent coordinate -> local coordinate; requires containment.
  Coord toLocal(const Coord& parentCoord) const;
  /// True iff the parent coordinate lies inside this block.
  bool containsParent(const Coord& parentCoord) const;

  /// Parent node id of a local node id.
  NodeId parentNodeOf(NodeId local) const;

  /// The block as a standalone topology. A dimension keeps wraparound only
  /// if the block spans the parent's full (wrapped) extent in it; every
  /// proper sub-dimension becomes a mesh dimension.
  Torus localTopology() const;

 private:
  const Torus* parent_;
  Coord origin_;
  Shape extent_;
  Torus local_;
};

/// Partition \p t into a grid of equally-shaped blocks of shape
/// \p blockShape. Every extent must divide evenly. Blocks are returned in
/// row-major order of their grid position.
std::vector<SubcubeView> partitionIntoBlocks(const Torus& t,
                                             const Shape& blockShape);

}  // namespace rahtm
