#include "config/symmetry.h"

#include <algorithm>
#include <cmath>

#include "geom/angle.h"

namespace apf::config {
namespace {

/// Multiset coincidence of `a` and `b` (same size assumed): greedy matching
/// is sound here because the tolerance is far below point separation.
bool coincides(const std::vector<Vec2>& a, const std::vector<Vec2>& b,
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

/// Mirror image of q across the line through `center` with unit direction
/// u: 2 (d.u) u - d, for d = q - center.
Vec2 reflectAcross(Vec2 q, Vec2 center, Vec2 u) {
  const Vec2 d = q - center;
  return center + u * (2.0 * d.dot(u)) - d;
}

}  // namespace

bool rotationMapsToSelf(const Configuration& p, Vec2 center, double angle,
                        const Tol& tol) {
  std::vector<Vec2> rotated;
  rotated.reserve(p.size());
  for (const Vec2& q : p.points()) {
    rotated.push_back(center + (q - center).rotated(angle));
  }
  return coincides(rotated, p.points(), tol);
}

bool reflectionMapsToSelf(const Configuration& p, Vec2 center, double axisDir,
                          const Tol& tol) {
  const Vec2 u{std::cos(axisDir), std::sin(axisDir)};
  std::vector<Vec2> reflected;
  reflected.reserve(p.size());
  for (const Vec2& q : p.points()) {
    reflected.push_back(reflectAcross(q, center, u));
  }
  return coincides(reflected, p.points(), tol);
}

int symmetricity(const Configuration& p, Vec2 center, const Tol& tol) {
  const int n = static_cast<int>(p.size());
  if (n <= 1) return std::max(n, 1);
  // Points at the center are fixed by every rotation; symmetricity is
  // governed by the remaining points, and any m that maps them to
  // themselves works. The candidate orders divide the number of off-center
  // points.
  int off = 0;
  for (const Vec2& q : p.points()) {
    if (geom::dist(q, center) > tol.dist) ++off;
  }
  if (off == 0) return 1;
  for (int m = off; m >= 2; --m) {
    if (off % m != 0) continue;
    if (rotationMapsToSelf(p, center, geom::kTwoPi / m, tol)) return m;
  }
  return 1;
}

std::vector<double> symmetryAxes(const Configuration& p, Vec2 center,
                                 const Tol& tol) {
  // Candidate axis directions: the direction of each point, and the bisector
  // of each pair of points (both mod pi). Any true axis must be one of them
  // (an axis either passes through a point or bisects a mirror pair).
  const auto& pts = p.points();
  std::vector<double> args;  // direction of each point off the center
  args.reserve(pts.size());
  for (const Vec2& q : pts) {
    const Vec2 d = q - center;
    if (d.norm() <= tol.dist) continue;
    args.push_back(geom::norm2pi(d.arg()));
  }
  std::vector<double> candidates;
  candidates.reserve(args.size() * args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    const double ai = args[i];
    candidates.push_back(std::fmod(ai, geom::kPi));
    for (std::size_t j = i + 1; j < args.size(); ++j) {
      const double aj = args[j];
      candidates.push_back(std::fmod((ai + aj) / 2.0, geom::kPi));
      candidates.push_back(
          std::fmod((ai + aj) / 2.0 + geom::kPi / 2.0, geom::kPi));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<double> axes;
  for (double a : candidates) {
    if (!axes.empty() && std::fabs(a - axes.back()) <= tol.ang) continue;
    // reflectionMapsToSelf matches the image of pts[0] first, against every
    // point still unused; with no point near that image it rejects the
    // axis. Testing just that image, computed the same way, rejects the
    // same candidates in O(n) and without allocating.
    const Vec2 image =
        reflectAcross(pts[0], center, Vec2{std::cos(a), std::sin(a)});
    if (std::none_of(pts.begin(), pts.end(), [&](Vec2 q) {
          return geom::nearlyEqual(image, q, tol);
        })) {
      continue;
    }
    if (reflectionMapsToSelf(p, center, a, tol)) axes.push_back(a);
  }
  // Merge the wrap-around duplicate (axis near 0 and near pi are the same).
  if (axes.size() >= 2 &&
      std::fabs(axes.front() + geom::kPi - axes.back()) <= tol.ang) {
    axes.pop_back();
  }
  return axes;
}

}  // namespace apf::config
