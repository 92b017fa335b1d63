#pragma once

/// \file sec.h
/// Smallest enclosing circle (Welzl's algorithm) and the "holds C(P)"
/// predicate from the paper.

#include <span>
#include <vector>

#include "geom/circle.h"
#include "geom/vec2.h"

namespace apf::geom {

/// Smallest enclosing circle of the points. Expected O(n) time (Welzl with
/// move-to-front). The points are inserted in a fixed pseudo-random order
/// that depends only on their count, so results are reproducible. Returns a
/// zero circle for an empty input.
Circle smallestEnclosingCircle(std::span<const Vec2> pts);

/// True when point index `i` "holds" the smallest enclosing circle of `pts`:
/// removing it changes C(P). Per the paper, only points on the circumference
/// can hold the circle, and a point holds it iff the SEC of the remaining
/// points is different (smaller).
bool holdsSec(std::span<const Vec2> pts, std::size_t i,
              const Tol& tol = kDefaultTol);

/// Indices of all points that hold the smallest enclosing circle, in
/// ascending order; equal to testing holdsSec for each index, but computes
/// the circle of the whole set once.
std::vector<std::size_t> secHolders(std::span<const Vec2> pts,
                                    const Tol& tol = kDefaultTol);

}  // namespace apf::geom
