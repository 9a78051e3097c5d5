#pragma once
/// \file offset_table.hpp
/// Minimal-route geometry of a torus or mesh, stored once per offset class.
///
/// Minimal routes from a source to a destination depend only on their
/// per-dimension coordinate offset (translation symmetry). Each node gets
/// an index in a virtual grid of extent 2k-1 per dimension (row-major, last
/// dimension fastest, the layout RouteTable uses), wide enough that no
/// offset wraps, so the offset class of (src, dst) is
/// virt(dst) - virt(src) + center: one subtraction, no coordinates. Per
/// class the table holds the hop distance and the minimal output channels.
/// It has prod(2k-1) classes: 243 on 2x2x2x2x2, 2,401 on 4x4x4x4, 7,203 on
/// 4x4x4x4x2.
///
/// Torus::distance and Torus::minimalOffset are the reference the table is
/// built from and tested against.

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "topology/torus.hpp"

namespace rahtm {

class OffsetTable {
 public:
  /// One minimal output channel of a node toward a destination. At four
  /// bytes, a class's list of at most 2 * ndims outputs spans 64 bytes.
  struct Output {
    std::uint16_t steps;  ///< hops the route still takes in this dimension
    std::uint8_t slot;    ///< dim * 2 + dir: channel node * 2 * ndims + slot
    bool tie;             ///< both directions of the dimension are minimal
  };

  /// Largest extent a table accepts: its step counts fit Output::steps.
  static constexpr std::int32_t kMaxExtent = 65536;

  /// Throws for an extent above kMaxExtent or a class count too large to
  /// index.
  explicit OffsetTable(const Torus& topo);

  std::size_t numClasses() const { return dist_.size(); }

  /// Hop distance of a minimal route, equal to Torus::distance(src, dst).
  /// Both lookups throw for a node id outside the topology.
  std::int32_t distance(NodeId src, NodeId dst) const {
    return dist_[classOf(src, dst)];
  }

  /// Minimal output channels at \p src toward \p dst, none when equal:
  /// dimensions ascending, each dimension's canonical direction first,
  /// then its tie partner.
  std::span<const Output> outputs(NodeId src, NodeId dst) const {
    const std::size_t c = classOf(src, dst);
    return {outputs_.data() + first_[c], first_[c + 1] - first_[c]};
  }

  /// Heap bytes the table holds, for its owner's memory account.
  std::int64_t footprintBytes() const;

 private:
  std::size_t classOf(NodeId src, NodeId dst) const {
    RAHTM_REQUIRE(static_cast<std::size_t>(src) < virtOf_.size() &&
                      static_cast<std::size_t>(dst) < virtOf_.size(),
                  "OffsetTable: node id out of range");
    return static_cast<std::size_t>(center_ +
                                    virtOf_[static_cast<std::size_t>(dst)] -
                                    virtOf_[static_cast<std::size_t>(src)]);
  }

  std::vector<std::int32_t> virtOf_;  ///< virtual index of each node
  std::int32_t center_ = 0;           ///< virtual index of offset zero
  std::vector<std::int32_t> dist_;    ///< class -> hop distance
  /// Class c owns outputs_[first_[c], first_[c + 1]).
  std::vector<std::uint32_t> first_;
  std::vector<Output> outputs_;
};

}  // namespace rahtm
