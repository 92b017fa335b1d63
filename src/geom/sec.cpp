#include "geom/sec.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>

namespace apf::geom {
namespace {

Circle circleFrom2(Vec2 a, Vec2 b) {
  return {midpoint(a, b), dist(a, b) / 2.0};
}

/// Circumcircle of three points; falls back to the best 2-point circle when
/// the points are (nearly) collinear.
Circle circleFrom3(Vec2 a, Vec2 b, Vec2 c) {
  const Vec2 ab = b - a, ac = c - a;
  const double d = 2.0 * ab.cross(ac);
  if (std::fabs(d) < 1e-30) {
    // Collinear: the smallest circle through the extreme pair covers all.
    Circle best = circleFrom2(a, b);
    const Circle bc = circleFrom2(b, c);
    const Circle ca = circleFrom2(c, a);
    if (bc.radius > best.radius) best = bc;
    if (ca.radius > best.radius) best = ca;
    return best;
  }
  const double abn = ab.norm2(), acn = ac.norm2();
  const Vec2 center{a.x + (ac.y * abn - ab.y * acn) / d,
                    a.y + (ab.x * acn - ac.x * abn) / d};
  return {center, dist(center, a)};
}

bool inCircle(const Circle& c, Vec2 p) {
  // Slightly enlarged membership keeps Welzl numerically stable.
  return dist(p, c.center) <= c.radius * (1.0 + 1e-14) + 1e-14;
}

Circle secWithTwo(std::span<const Vec2> pts, std::size_t end, Vec2 p, Vec2 q) {
  Circle c = circleFrom2(p, q);
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) c = circleFrom3(p, q, pts[i]);
  }
  return c;
}

Circle secWithOne(std::span<const Vec2> pts, std::size_t end, Vec2 p) {
  Circle c{p, 0.0};
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) {
      c = (c.radius == 0.0) ? circleFrom2(p, pts[i])
                            : secWithTwo(pts, i, p, pts[i]);
    }
  }
  return c;
}

/// Seed of the std::mt19937 that std::shuffle uses to fix Welzl's insertion
/// order.
constexpr std::uint32_t kWelzlSeed = 0x5ec0c13eU;

/// The insertion order for n points. It depends on n alone, so each thread
/// draws it once per n and keeps it; no table is shared between threads.
std::span<const std::uint32_t> welzlOrder(std::size_t n) {
  thread_local std::vector<std::vector<std::uint32_t>> orders;
  if (orders.size() <= n) orders.resize(n + 1);
  std::vector<std::uint32_t>& order = orders[n];
  if (order.empty()) {
    order.resize(n);
    std::iota(order.begin(), order.end(), 0U);
    std::mt19937 rng(kWelzlSeed);
    std::shuffle(order.begin(), order.end(), rng);
  }
  return order;
}

/// True when removing point `i` changes `whole`, the SEC of all of `pts`;
/// `rest` is scratch space for the remaining points.
bool holdsGiven(std::span<const Vec2> pts, std::size_t i, const Circle& whole,
                const Tol& tol, std::vector<Vec2>& rest) {
  if (!whole.onBoundary(pts[i], tol)) return false;
  rest.clear();
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (j != i) rest.push_back(pts[j]);
  }
  const Circle without = smallestEnclosingCircle(rest);
  return !distEq(without.radius, whole.radius, tol) ||
         !nearlyEqual(without.center, whole.center, tol);
}

}  // namespace

Circle smallestEnclosingCircle(std::span<const Vec2> pts) {
  if (pts.empty()) return {};
  if (pts.size() == 1) return {pts[0], 0.0};
  // Per-thread gather buffer: reused across calls, never shared.
  thread_local std::vector<Vec2> shuffled;
  shuffled.clear();
  for (const std::uint32_t k : welzlOrder(pts.size())) {
    shuffled.push_back(pts[k]);
  }

  Circle c{shuffled[0], 0.0};
  for (std::size_t i = 1; i < shuffled.size(); ++i) {
    if (!inCircle(c, shuffled[i])) {
      c = secWithOne(shuffled, i, shuffled[i]);
    }
  }
  return c;
}

bool holdsSec(std::span<const Vec2> pts, std::size_t i, const Tol& tol) {
  std::vector<Vec2> rest;
  return holdsGiven(pts, i, smallestEnclosingCircle(pts), tol, rest);
}

std::vector<std::size_t> secHolders(std::span<const Vec2> pts, const Tol& tol) {
  std::vector<std::size_t> out;
  if (pts.empty()) return out;
  const Circle whole = smallestEnclosingCircle(pts);
  std::vector<Vec2> rest;
  rest.reserve(pts.size() - 1);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (holdsGiven(pts, i, whole, tol, rest)) out.push_back(i);
  }
  return out;
}

}  // namespace apf::geom
