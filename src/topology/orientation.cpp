#include "topology/orientation.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace rahtm {

Orientation Orientation::identity(std::size_t ndims) {
  Orientation o;
  o.perm.resize(ndims);
  o.flip.resize(ndims, 0);
  for (std::size_t i = 0; i < ndims; ++i) o.perm[i] = static_cast<std::int8_t>(i);
  return o;
}

Coord Orientation::apply(const Coord& c, const Shape& shape) const {
  RAHTM_REQUIRE(c.size() == perm.size() && shape.size() == perm.size(),
                "Orientation::apply: dimension mismatch");
  Coord out(c.size(), 0);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const std::size_t src = static_cast<std::size_t>(perm[i]);
    const std::int32_t v = c[src];
    out[i] = flip[i] ? (shape[src] - 1 - v) : v;
  }
  return out;
}

Shape Orientation::applyToShape(const Shape& shape) const {
  RAHTM_REQUIRE(shape.size() == perm.size(),
                "Orientation::applyToShape: dimension mismatch");
  Shape out(shape.size(), 0);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    out[i] = shape[static_cast<std::size_t>(perm[i])];
  }
  return out;
}

Orientation Orientation::then(const Orientation& b) const {
  RAHTM_REQUIRE(perm.size() == b.perm.size(),
                "Orientation::then: dimension mismatch");
  // out[i] = b applied after *this:
  //   (a.then(b)).perm[i] = a.perm[b.perm[i]]
  //   flip combines xor, where b's flip acts on the intermediate dim.
  Orientation out;
  out.perm.resize(perm.size());
  out.flip.resize(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const auto mid = static_cast<std::size_t>(b.perm[i]);
    out.perm[i] = perm[mid];
    out.flip[i] = static_cast<std::uint8_t>(b.flip[i] ^ flip[mid]);
  }
  return out;
}

Orientation Orientation::inverse() const {
  Orientation out;
  out.perm.resize(perm.size());
  out.flip.resize(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    const auto j = static_cast<std::size_t>(perm[i]);
    out.perm[j] = static_cast<std::int8_t>(i);
    out.flip[j] = flip[i];
  }
  return out;
}

std::string Orientation::describe() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < perm.size(); ++i) {
    if (i) os << ' ';
    os << (flip[i] ? "-" : "+") << static_cast<int>(perm[i]);
  }
  os << ']';
  return os.str();
}

std::vector<Orientation> enumerateOrientations(const Shape& shape) {
  const std::size_t n = shape.size();
  // Enumerate permutations that only exchange equal-extent dimensions.
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);

  std::vector<Orientation> out;
  std::vector<std::int8_t> perm(n);
  std::vector<bool> used(n, false);

  // Depth-first over positions; at each position try every unused source
  // dimension with a matching extent.
  auto rec = [&](auto&& self, std::size_t pos) -> void {
    if (pos == n) {
      // Expand flips over non-degenerate dimensions.
      SmallVec<std::size_t, kMaxDims> flippable;
      for (std::size_t i = 0; i < n; ++i) {
        if (shape[static_cast<std::size_t>(perm[i])] > 1) flippable.push_back(i);
      }
      const std::size_t combos = std::size_t{1} << flippable.size();
      for (std::size_t mask = 0; mask < combos; ++mask) {
        Orientation o;
        o.perm.resize(n);
        o.flip.resize(n, 0);
        for (std::size_t i = 0; i < n; ++i) o.perm[i] = perm[i];
        for (std::size_t b = 0; b < flippable.size(); ++b) {
          if (mask & (std::size_t{1} << b)) o.flip[flippable[b]] = 1;
        }
        out.push_back(o);
      }
      return;
    }
    for (std::size_t src = 0; src < n; ++src) {
      if (used[src] || shape[src] != shape[pos]) continue;
      used[src] = true;
      perm[pos] = static_cast<std::int8_t>(src);
      self(self, pos + 1);
      used[src] = false;
    }
  };
  rec(rec, 0);
  return out;
}

std::int64_t countOrientations(const Shape& shape) {
  // Product over extent-groups of (group size)! times 2^(non-degenerate dims).
  std::int64_t permCount = 1;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    // multiplicity of shape[i] among dims [0..i]
    std::int64_t m = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      if (shape[j] == shape[i]) ++m;
    }
    permCount *= m;
  }
  std::int64_t flips = 1;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] > 1) flips *= 2;
  }
  return permCount * flips;
}

}  // namespace rahtm
