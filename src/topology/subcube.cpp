#include "topology/subcube.hpp"

#include "common/error.hpp"

namespace rahtm {

namespace {
Torus makeLocal(const Torus& parent, const Coord& origin, const Shape& extent) {
  RAHTM_REQUIRE(origin.size() == parent.ndims() &&
                    extent.size() == parent.ndims(),
                "SubcubeView: dimension mismatch");
  SmallVec<std::uint8_t, kMaxDims> wrap(extent.size(), 0);
  for (std::size_t d = 0; d < extent.size(); ++d) {
    RAHTM_REQUIRE(extent[d] >= 1, "SubcubeView: extent must be positive");
    RAHTM_REQUIRE(origin[d] >= 0 && origin[d] + extent[d] <= parent.extent(d),
                  "SubcubeView: block exceeds parent");
    wrap[d] = (extent[d] == parent.extent(d) && parent.wraps(d)) ? 1 : 0;
  }
  return Torus::mixed(extent, wrap);
}
}  // namespace

SubcubeView::SubcubeView(const Torus& parent, const Coord& origin,
                         const Shape& extent)
    : parent_(&parent),
      origin_(origin),
      extent_(extent),
      local_(makeLocal(parent, origin, extent)) {}

std::int64_t SubcubeView::numNodes() const { return local_.numNodes(); }

Coord SubcubeView::toParent(const Coord& local) const {
  RAHTM_REQUIRE(local_.contains(local), "toParent: local coord out of range");
  Coord p(local.size(), 0);
  for (std::size_t d = 0; d < local.size(); ++d) p[d] = origin_[d] + local[d];
  return p;
}

Coord SubcubeView::toLocal(const Coord& parentCoord) const {
  RAHTM_REQUIRE(containsParent(parentCoord), "toLocal: coord outside block");
  Coord l(parentCoord.size(), 0);
  for (std::size_t d = 0; d < parentCoord.size(); ++d) {
    l[d] = parentCoord[d] - origin_[d];
  }
  return l;
}

bool SubcubeView::containsParent(const Coord& parentCoord) const {
  if (parentCoord.size() != extent_.size()) return false;
  for (std::size_t d = 0; d < extent_.size(); ++d) {
    if (parentCoord[d] < origin_[d] || parentCoord[d] >= origin_[d] + extent_[d])
      return false;
  }
  return true;
}

NodeId SubcubeView::parentNodeOf(NodeId local) const {
  return parent_->nodeId(toParent(local_.coordOf(local)));
}

Torus SubcubeView::localTopology() const { return local_; }

std::vector<SubcubeView> partitionIntoBlocks(const Torus& t,
                                             const Shape& blockShape) {
  RAHTM_REQUIRE(blockShape.size() == t.ndims(),
                "partitionIntoBlocks: dimension mismatch");
  Shape grid(blockShape.size(), 0);
  for (std::size_t d = 0; d < blockShape.size(); ++d) {
    RAHTM_REQUIRE(blockShape[d] >= 1 && t.extent(d) % blockShape[d] == 0,
                  "partitionIntoBlocks: block shape must divide extents");
    grid[d] = t.extent(d) / blockShape[d];
  }
  const Torus gridTopo = Torus::mesh(grid);
  std::vector<SubcubeView> out;
  out.reserve(static_cast<std::size_t>(gridTopo.numNodes()));
  for (NodeId g = 0; g < gridTopo.numNodes(); ++g) {
    const Coord gc = gridTopo.coordOf(g);
    Coord origin(gc.size(), 0);
    for (std::size_t d = 0; d < gc.size(); ++d) origin[d] = gc[d] * blockShape[d];
    out.emplace_back(t, origin, blockShape);
  }
  return out;
}

}  // namespace rahtm
