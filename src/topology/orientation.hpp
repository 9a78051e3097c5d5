#pragma once
/// \file orientation.hpp
/// Signed-permutation symmetries ("rotations and reorientations", §III-D).
///
/// The merge phase of RAHTM reorients mapped blocks inside their slot of the
/// parent subcube. For a 2-ary n-cube these symmetries form the
/// hyperoctahedral group B_n with |B_n| = 2^n · n!. For general block shapes
/// only dimensions of equal extent may be permuted, and only dimensions with
/// extent > 1 contribute a flip, so degenerate dimensions do not inflate the
/// search space.

#include <cstdint>
#include <string>
#include <vector>

#include "common/small_vec.hpp"

namespace rahtm {

/// A signed permutation acting on coordinates within a block of a given
/// shape: output coordinate i reads input dimension perm[i], optionally
/// mirrored (flip) within that dimension's extent.
struct Orientation {
  SmallVec<std::int8_t, kMaxDims> perm;   ///< perm[i] = source dim of target dim i
  SmallVec<std::uint8_t, kMaxDims> flip;  ///< flip[i] = mirror target dim i

  std::size_t ndims() const { return perm.size(); }

  /// The identity orientation on \p ndims dimensions.
  static Orientation identity(std::size_t ndims);

  /// Apply to a local coordinate within a block of shape \p shape
  /// (shape is the block shape *before* the orientation is applied).
  Coord apply(const Coord& c, const Shape& shape) const;

  /// Shape of the block after applying this orientation.
  Shape applyToShape(const Shape& shape) const;

  /// Composition: (a.then(b)) applies a first, then b. Requires that the
  /// intermediate shape is valid for b.
  Orientation then(const Orientation& b) const;

  /// Inverse orientation (apply(inverse().apply(c)) == c).
  Orientation inverse() const;

  std::string describe() const;

  friend bool operator==(const Orientation& a, const Orientation& b) {
    return a.perm == b.perm && a.flip == b.flip;
  }
};

/// Enumerate every orientation that maps a block of shape \p shape onto
/// itself: permutations within groups of equal-extent dimensions, times
/// mirror flips of non-degenerate dimensions. For a 2-ary n-cube this is
/// the full hyperoctahedral group (2^n · n! elements).
std::vector<Orientation> enumerateOrientations(const Shape& shape);

/// Number of orientations enumerateOrientations() would return.
std::int64_t countOrientations(const Shape& shape);

}  // namespace rahtm
