#pragma once

/// \file kernel_oracle.h
/// Test-only reference copies of four geometry/configuration kernels, in
/// their straightforward form:
///   - angle normalization to [0, 2pi) calling std::fmod on every input;
///   - Welzl's smallest enclosing circle, shuffling a fresh copy of the
///     points with a freshly seeded std::mt19937 on every call;
///   - "holds C(P)" tested index by index, each test recomputing C(P);
///   - symmetry axes found by running the full reflection match on every
///     candidate direction.
/// The library's kernels skip fmod where it returns its argument, reuse a
/// per-n insertion order, compute C(P) once per holder scan and prefilter
/// axis candidates. They must return exactly
/// what these copies return, bit for bit (tests/kernel_oracle_test.cpp).

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <vector>

#include "config/configuration.h"
#include "geom/angle.h"
#include "geom/circle.h"
#include "geom/vec2.h"

namespace apf::oracle {

using geom::Circle;
using geom::Tol;
using geom::Vec2;

namespace detail {

inline Circle circleFrom2(Vec2 a, Vec2 b) {
  return {geom::midpoint(a, b), geom::dist(a, b) / 2.0};
}

inline Circle circleFrom3(Vec2 a, Vec2 b, Vec2 c) {
  const Vec2 ab = b - a, ac = c - a;
  const double d = 2.0 * ab.cross(ac);
  if (std::fabs(d) < 1e-30) {
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
  return {center, geom::dist(center, a)};
}

inline bool inCircle(const Circle& c, Vec2 p) {
  return geom::dist(p, c.center) <= c.radius * (1.0 + 1e-14) + 1e-14;
}

inline Circle secWithTwo(std::span<const Vec2> pts, std::size_t end, Vec2 p,
                         Vec2 q) {
  Circle c = circleFrom2(p, q);
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) c = circleFrom3(p, q, pts[i]);
  }
  return c;
}

inline Circle secWithOne(std::span<const Vec2> pts, std::size_t end, Vec2 p) {
  Circle c{p, 0.0};
  for (std::size_t i = 0; i < end; ++i) {
    if (!inCircle(c, pts[i])) {
      c = (c.radius == 0.0) ? circleFrom2(p, pts[i])
                            : secWithTwo(pts, i, p, pts[i]);
    }
  }
  return c;
}

inline bool coincides(const std::vector<Vec2>& a, const std::vector<Vec2>& b,
                      const Tol& tol) {
  std::vector<bool> used(b.size(), false);
  for (const Vec2& p : a) {
    bool found = false;
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (!used[j] && geom::nearlyEqual(p, b[j], tol)) {
        used[j] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

inline bool reflectionMapsToSelf(const config::Configuration& p, Vec2 center,
                                 double axisDir, const Tol& tol) {
  const Vec2 u{std::cos(axisDir), std::sin(axisDir)};
  std::vector<Vec2> reflected;
  reflected.reserve(p.size());
  for (const Vec2& q : p.points()) {
    const Vec2 d = q - center;
    reflected.push_back(center + u * (2.0 * d.dot(u)) - d);
  }
  return coincides(reflected, p.points(), tol);
}

}  // namespace detail

/// geom::norm2pi with std::fmod on every input.
inline double norm2pi(double a) {
  double r = std::fmod(a, geom::kTwoPi);
  if (r < 0) r += geom::kTwoPi;
  if (r >= geom::kTwoPi) r = 0.0;
  return r;
}

/// Welzl's algorithm over a copy shuffled by a freshly seeded mt19937.
inline Circle smallestEnclosingCircle(std::span<const Vec2> pts) {
  if (pts.empty()) return {};
  if (pts.size() == 1) return {pts[0], 0.0};
  std::vector<Vec2> shuffled(pts.begin(), pts.end());
  std::mt19937 rng(0x5ec0c13eU);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);

  Circle c{shuffled[0], 0.0};
  for (std::size_t i = 1; i < shuffled.size(); ++i) {
    if (!detail::inCircle(c, shuffled[i])) {
      c = detail::secWithOne(shuffled, i, shuffled[i]);
    }
  }
  return c;
}

/// Point i holds C(P): on its boundary, and removing it changes the circle.
inline bool holdsSec(std::span<const Vec2> pts, std::size_t i,
                     const Tol& tol = geom::kDefaultTol) {
  const Circle whole = oracle::smallestEnclosingCircle(pts);
  if (!whole.onBoundary(pts[i], tol)) return false;
  std::vector<Vec2> rest;
  rest.reserve(pts.size() - 1);
  for (std::size_t j = 0; j < pts.size(); ++j) {
    if (j != i) rest.push_back(pts[j]);
  }
  const Circle without = oracle::smallestEnclosingCircle(rest);
  return !geom::distEq(without.radius, whole.radius, tol) ||
         !geom::nearlyEqual(without.center, whole.center, tol);
}

inline std::vector<std::size_t> secHolders(std::span<const Vec2> pts,
                                           const Tol& tol = geom::kDefaultTol) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (oracle::holdsSec(pts, i, tol)) out.push_back(i);
  }
  return out;
}

/// Every point direction and pair bisector, each tested with the full
/// reflection match.
inline std::vector<double> symmetryAxes(const config::Configuration& p,
                                        Vec2 center,
                                        const Tol& tol = geom::kDefaultTol) {
  std::vector<double> candidates;
  const auto& pts = p.points();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec2 di = pts[i] - center;
    if (di.norm() <= tol.dist) continue;
    const double ai = geom::norm2pi(di.arg());
    candidates.push_back(std::fmod(ai, geom::kPi));
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      const Vec2 dj = pts[j] - center;
      if (dj.norm() <= tol.dist) continue;
      const double aj = geom::norm2pi(dj.arg());
      candidates.push_back(std::fmod((ai + aj) / 2.0, geom::kPi));
      candidates.push_back(
          std::fmod((ai + aj) / 2.0 + geom::kPi / 2.0, geom::kPi));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<double> axes;
  for (double a : candidates) {
    if (!axes.empty() && std::fabs(a - axes.back()) <= tol.ang) continue;
    if (detail::reflectionMapsToSelf(p, center, a, tol)) axes.push_back(a);
  }
  if (axes.size() >= 2 &&
      std::fabs(axes.front() + geom::kPi - axes.back()) <= tol.ang) {
    axes.pop_back();
  }
  return axes;
}

}  // namespace apf::oracle
