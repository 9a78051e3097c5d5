#include "topology/offset_table.hpp"

#include <algorithm>
#include <limits>

namespace rahtm {

OffsetTable::OffsetTable(const Torus& topo) {
  const std::size_t n = topo.ndims();
  SmallVec<std::int64_t, kMaxDims> vstride(n, 0);
  std::int64_t classes = 1;
  for (std::size_t d = n; d-- > 0;) {
    RAHTM_REQUIRE(topo.extent(d) <= kMaxExtent,
                  "OffsetTable: extent above 65536");
    vstride[d] = classes;
    classes *= 2 * static_cast<std::int64_t>(topo.extent(d)) - 1;
    RAHTM_REQUIRE(classes <= std::numeric_limits<std::int32_t>::max(),
                  "OffsetTable: topology too large");
  }
  // A class has at most two outputs per dimension; first_ indexes them.
  RAHTM_REQUIRE(classes * 2 * static_cast<std::int64_t>(n) <=
                    std::numeric_limits<std::uint32_t>::max(),
                "OffsetTable: topology too large");
  const auto nodes = static_cast<std::size_t>(topo.numNodes());
  virtOf_.resize(nodes);
  for (std::size_t node = 0; node < nodes; ++node) {
    const Coord c = topo.coordOf(static_cast<NodeId>(node));
    std::int64_t v = 0;
    for (std::size_t d = 0; d < n; ++d) v += c[d] * vstride[d];
    virtOf_[node] = static_cast<std::int32_t>(v);
  }
  for (std::size_t d = 0; d < n; ++d) {
    center_ += static_cast<std::int32_t>((topo.extent(d) - 1) * vstride[d]);
  }

  // Dimension d's minimal offset for each coordinate difference b - a in
  // [1-k, k-1], at row index b - a + k - 1 (the class's digit in d).
  std::vector<std::vector<MinimalOffset>> rows(n);
  for (std::size_t d = 0; d < n; ++d) {
    const std::int32_t k = topo.extent(d);
    Coord a(n, 0);
    Coord b(n, 0);
    for (std::int32_t delta = 1 - k; delta < k; ++delta) {
      a[d] = std::max(0, -delta);
      b[d] = a[d] + delta;
      rows[d].push_back(topo.minimalOffset(a, b, d));
    }
  }

  dist_.resize(static_cast<std::size_t>(classes));
  first_.reserve(static_cast<std::size_t>(classes) + 1);
  Coord digit(n, 0);
  for (std::size_t c = 0; c < dist_.size(); ++c) {
    first_.push_back(static_cast<std::uint32_t>(outputs_.size()));
    std::int32_t hops = 0;
    for (std::size_t d = 0; d < n; ++d) {
      const MinimalOffset& off = rows[d][static_cast<std::size_t>(digit[d])];
      hops += off.steps;
      if (off.steps == 0) continue;
      const auto output = [&](Dir dir) {
        return Output{static_cast<std::uint16_t>(off.steps),
                      static_cast<std::uint8_t>(
                          d * 2 + static_cast<std::size_t>(dir)),
                      off.tie};
      };
      outputs_.push_back(output(off.dir));
      if (off.tie) outputs_.push_back(output(opposite(off.dir)));
    }
    dist_[c] = hops;
    for (std::size_t d = n; d-- > 0;) {  // next class: last digit fastest
      if (++digit[d] < 2 * topo.extent(d) - 1) break;
      digit[d] = 0;
    }
  }
  first_.push_back(static_cast<std::uint32_t>(outputs_.size()));
  outputs_.shrink_to_fit();
}

std::int64_t OffsetTable::footprintBytes() const {
  return static_cast<std::int64_t>(
      (virtOf_.capacity() + dist_.capacity()) * sizeof(std::int32_t) +
      first_.capacity() * sizeof(std::uint32_t) +
      outputs_.capacity() * sizeof(Output));
}

}  // namespace rahtm
