#pragma once

/// \file kernel_oracle.h
/// Test-only reference copies of five geometry/configuration kernels, in
/// their straightforward form:
///   - angle normalization to [0, 2pi) calling std::fmod on every input;
///   - Welzl's smallest enclosing circle, shuffling a fresh copy of the
///     points with a freshly seeded std::mt19937 on every call;
///   - "holds C(P)" tested index by index, each test recomputing C(P);
///   - symmetry axes found by running the full reflection match on every
///     candidate direction;
///   - the shifted regular set (Definition 3) searched with a whole-grid
///     fit on every gap of plausible width.
/// The library's kernels skip fmod where it returns its argument, reuse a
/// per-n insertion order, compute C(P) once per holder scan, prefilter
/// axis candidates and fit only the gap that holds the shifted robot.
/// They must return exactly what these copies return, bit for bit
/// (tests/kernel_oracle_test.cpp).

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "config/configuration.h"
#include "config/rays.h"
#include "config/regular.h"
#include "config/shifted.h"
#include "config/symmetry.h"
#include "geom/angle.h"
#include "geom/circle.h"
#include "geom/vec2.h"
#include "geom/weber.h"

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


/// config::shiftedRegularSetOf as it was before its whole-grid fit was
/// narrowed: for each candidate robot r the Gauss-Newton grid fit runs on
/// every gap of plausible width around each init center (the equiangular
/// fit on the largest gap wherever r lies, the bi-angled fit on every gap
/// of width 0.55-1.45 x 4pi/n), not only on the gap that holds r.
namespace shifted {

using config::alphaMin;
using config::alphaMinAt;
using config::Configuration;
using config::regularSetOf;
using config::ShiftedSetInfo;
using config::symmetryAxes;
using geom::kTwoPi;

/// A candidate vacant-ray direction, with the equiangular-family order that
/// proposed it and how many robots aligned to it at tight tolerance.
struct VacancyCandidate {
  double thetaV = 0.0;
  /// Best tight alignment over the proposing family orders.
  int tightCount = 0;
  /// True when some family order jf had at least jf - 1 members aligned at
  /// tight tolerance — the signature of a genuine grid with one vacancy.
  bool plausible = false;
};

/// Exact verification of Definition 3 for a concrete (r, r') pair: builds
/// P' = P - {r} + {r'}, runs the full Definition-2 machinery, and checks
/// conditions (a)-(c). Never returns a false positive.
inline std::optional<ShiftedSetInfo> verifyShift(const Configuration& p,
                                                 std::size_t ir, Vec2 rPrime,
                                                 Vec2 cApprox,
                                                 const Tol& tol) {
  const Vec2 r = p[ir];
  if (geom::nearlyEqual(r, rPrime, tol)) return std::nullopt;  // eps > 0
  if (p.distanceTo(rPrime) <= tol.dist) return std::nullopt;   // r' not in P

  std::vector<Vec2> pts = p.points();
  pts[ir] = rPrime;
  const Configuration pPrime(std::move(pts));

  // Cheap pre-rejection around the approximate center: condition (a)
  // requires the shift angle to be at most a quarter of alphamin(P'); most
  // spurious candidates fail this by a wide margin, sparing the expensive
  // Definition-2 verification. 0.3 leaves slack for center error.
  {
    const double aMinApprox = alphaMin(pPrime, cApprox, tol);
    const double shiftApprox = geom::angMin(r, cApprox, rPrime);
    if (aMinApprox >= kTwoPi || shiftApprox > 0.3 * aMinApprox) {
      return std::nullopt;
    }
  }

  const auto reg = regularSetOf(pPrime, tol);
  if (!reg) return std::nullopt;
  if (std::find(reg->indices.begin(), reg->indices.end(), ir) ==
      reg->indices.end()) {
    return std::nullopt;  // r' must belong to reg(P')
  }
  const Vec2 c = reg->grid.center;

  // Condition (c): |r| = |r'| = min_{u in P} |u| (distances from c).
  const double rd = geom::dist(r, c);
  if (!geom::distEq(rd, geom::dist(rPrime, c), tol)) return std::nullopt;
  for (const Vec2& q : p.points()) {
    if (geom::dist(q, c) < rd - tol.dist) return std::nullopt;
  }

  // Condition (a): angmin(r, c, r') = eps * alphamin(P'), 0 < eps <= 1/4.
  const double aMinPPrime = alphaMin(pPrime, c, tol);
  if (aMinPPrime >= kTwoPi) return std::nullopt;
  const double shiftAngle = geom::angMin(r, c, rPrime);
  const double eps = shiftAngle / aMinPPrime;
  if (eps <= 0.0 || shiftAngle <= tol.ang || eps > 0.25 + 1e-9) {
    return std::nullopt;
  }

  // Condition (b): alphamin(r, P) < alphamin(r', P').
  if (!(alphaMinAt(r, p, c, tol) < alphaMinAt(rPrime, pPrime, c, tol))) {
    return std::nullopt;
  }

  ShiftedSetInfo info;
  info.grid = reg->grid;
  info.biangular = reg->biangular;
  info.indices = reg->indices;  // same index space: P'[i] == P[i] for i != ir
  info.shiftedRobot = ir;
  info.associatedPos = rPrime;
  info.epsilon = eps;
  info.alphaMinPPrime = aMinPPrime;
  info.wholeConfig = reg->wholeConfig;
  return info;
}

/// Propose vacant-ray directions around center c for shifted robot r:
/// for each equiangular family order jf, reduce every other robot's
/// direction modulo 2*pi/jf into the window of width alpha/2 around r's
/// direction. Exactly-aligned robots (bit-stable static grid members)
/// produce tightly clustered proposals.
inline std::vector<VacancyCandidate> proposeVacancies(
    const Configuration& p, std::size_t ir, Vec2 c, const Tol& tol) {
  const Vec2 r = p[ir];
  const Vec2 dr = r - c;
  if (dr.norm() <= tol.dist) return {};
  const double dirR = dr.arg();
  const int n = static_cast<int>(p.size());

  struct Raw {
    double thetaV;
    int familyOrder;
  };
  std::vector<Raw> raw;
  for (int jf = 2; jf <= n; ++jf) {
    const double step = kTwoPi / jf;
    for (std::size_t q = 0; q < p.size(); ++q) {
      if (q == ir) continue;
      const Vec2 dq = p[q] - c;
      if (dq.norm() <= tol.dist) continue;
      const double a = dq.arg();
      const double delta = a - dirR;
      const double k = std::round(delta / step);
      const double thetaV = geom::norm2pi(a - k * step);
      const double off = geom::normPi(thetaV - dirR);
      if (std::fabs(off) <= tol.ang) continue;  // on r's own ray: eps = 0
      if (std::fabs(off) > step / 4.0 + 1e-7) continue;  // eps > 1/4
      raw.push_back({thetaV, jf});
    }
  }
  std::sort(raw.begin(), raw.end(),
            [](const Raw& a, const Raw& b) { return a.thetaV < b.thetaV; });

  // Cluster at loose tolerance, then count tight alignment per family order.
  std::vector<VacancyCandidate> out;
  std::size_t i = 0;
  while (i < raw.size()) {
    std::size_t j = i;
    while (j + 1 < raw.size() && raw[j + 1].thetaV - raw[i].thetaV < 1e-6) ++j;
    // Within cluster [i, j]: per family order, count members within 1e-9 of
    // the cluster's median value. A vacancy of a jf-ray family must be
    // proposed by its jf - 1 occupied rays, so the cluster is plausible when
    // ANY of its proposing orders reaches that quorum (a single theta_v is
    // often proposed under several orders, e.g. jf and 2*jf).
    const double med = raw[(i + j) / 2].thetaV;
    VacancyCandidate cand{med, 0, false};
    for (std::size_t k = i; k <= j; ++k) {
      const int order = raw[k].familyOrder;
      int tight = 0;
      for (std::size_t l = i; l <= j; ++l) {
        if (raw[l].familyOrder == order &&
            std::fabs(raw[l].thetaV - med) < 1e-9) {
          ++tight;
        }
      }
      cand.tightCount = std::max(cand.tightCount, tight);
      if (tight + 1 >= order) cand.plausible = true;
    }
    out.push_back(cand);
    i = j + 1;
  }
  // Strongest clusters first: genuine grids align many robots tightly.
  std::sort(out.begin(), out.end(),
            [](const VacancyCandidate& a, const VacancyCandidate& b) {
              return a.tightCount > b.tightCount;
            });
  return out;
}

/// Whole-configuration case: reg(P') = P'. Fit the n-1 static robots
/// (everything except r) to an n-ray grid with the vacancy at ray 0, via
/// Gauss-Newton with a free center. Returns candidate r' positions.
/// `weberWhole` is the precomputed Weber point of all of P (hoisted by the
/// caller — Weiszfeld iteration is far too dear to repeat per candidate
/// robot).
inline std::vector<Vec2> refineWholeGridCandidates(const Configuration& p,
                                                   std::size_t ir,
                                                   Vec2 weberWhole,
                                                   const Tol& tol) {
  const int n = static_cast<int>(p.size());
  if (n < 5) return {};
  std::vector<Vec2> rest;
  rest.reserve(p.size() - 1);
  for (std::size_t q = 0; q < p.size(); ++q) {
    if (q != ir) rest.push_back(p[q]);
  }

  std::vector<Vec2> candidates;
  const Vec2 inits[2] = {weberWhole, geom::weberPoint(rest)};
  for (const Vec2& c0 : inits) {
    // Sorted directions of the static robots around the init center.
    struct Dir {
      double a;
      Vec2 pos;
    };
    std::vector<Dir> dirs;
    bool degenerate = false;
    for (const Vec2& q : rest) {
      const Vec2 d = q - c0;
      if (d.norm() <= tol.dist) {
        degenerate = true;
        break;
      }
      dirs.push_back({geom::norm2pi(d.arg()), q});
    }
    if (degenerate) continue;
    std::sort(dirs.begin(), dirs.end(),
              [](const Dir& a, const Dir& b) { return a.a < b.a; });
    const std::size_t m = dirs.size();  // n - 1 points on an n-ray grid

    auto gapAfter = [&](std::size_t k) {
      const double next =
          (k + 1 < m) ? dirs[k + 1].a : dirs[0].a + kTwoPi;
      return next - dirs[k].a;
    };

    const double base = kTwoPi / n;

    // Equiangular hypothesis: one gap ~ 2*base, the rest ~ base. The vacancy
    // sits inside the largest gap.
    {
      std::size_t v = 0;
      double maxGap = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        if (gapAfter(k) > maxGap) {
          maxGap = gapAfter(k);
          v = k;
        }
      }
      if (std::fabs(maxGap - 2.0 * base) < 0.5 * base) {
        std::vector<Vec2> pts;
        std::vector<int> rayIndex;
        for (std::size_t k = 0; k < m; ++k) {
          pts.push_back(dirs[(v + 1 + k) % m].pos);
          rayIndex.push_back(static_cast<int>(k + 1));  // vacancy is ray 0
        }
        geom::AngularGrid init;
        init.center = c0;
        init.theta0 = dirs[(v + 1) % m].a - base;
        init.alpha = init.beta = base;
        init.numRays = n;
        if (auto fit = geom::fitAngularGrid(pts, rayIndex, n, false, init);
            fit && fit->maxResidual <= tol.ang) {
          const Vec2 c = fit->grid.center;
          const double rad = geom::dist(p[ir], c);
          candidates.push_back(c + Vec2{std::cos(fit->grid.rayDir(0)),
                                        std::sin(fit->grid.rayDir(0))} *
                                       rad);
        }
      }
    }

    // Bi-angled hypothesis (n even): the vacancy merges an alpha gap and a
    // beta gap into pairSum = 4*pi/n. Try every gap as the vacancy.
    if (n % 2 == 0 && n >= 6) {
      const double pairSum = 2.0 * kTwoPi / n;
      for (std::size_t v = 0; v < m; ++v) {
        if (std::fabs(gapAfter(v) - pairSum) > 0.45 * pairSum) continue;
        // With the vacancy at ray 0, the robot after it is ray 1 and the gap
        // ray1->ray2 is beta (our convention: gaps alternate alpha, beta
        // starting after ray 0).
        const double betaInit = gapAfter((v + 1) % m);
        const double alphaInit = pairSum - betaInit;
        if (alphaInit < 0.02 * pairSum || alphaInit > 0.98 * pairSum) continue;
        std::vector<Vec2> pts;
        std::vector<int> rayIndex;
        for (std::size_t k = 0; k < m; ++k) {
          pts.push_back(dirs[(v + 1 + k) % m].pos);
          rayIndex.push_back(static_cast<int>(k + 1));
        }
        geom::AngularGrid init;
        init.center = c0;
        init.theta0 = dirs[(v + 1) % m].a - alphaInit;
        init.alpha = alphaInit;
        init.beta = betaInit;
        init.numRays = n;
        if (auto fit = geom::fitAngularGrid(pts, rayIndex, n, true, init);
            fit && fit->maxResidual <= tol.ang) {
          const Vec2 c = fit->grid.center;
          const double rad = geom::dist(p[ir], c);
          candidates.push_back(c + Vec2{std::cos(fit->grid.rayDir(0)),
                                        std::sin(fit->grid.rayDir(0))} *
                                       rad);
        }
      }
    }
  }
  return candidates;
}

inline std::optional<ShiftedSetInfo> shiftedRegularSetOf(
    const Configuration& p, const Tol& tol = geom::kDefaultTol) {
  const std::size_t n = p.size();
  if (n < 4) return std::nullopt;

  // Candidate shifted robots: innermost ring around either plausible center.
  // Both centers are hoisted out of the per-robot loops below: p.sec() and
  // p.weberPoint() are memoized by Configuration, so repeated calls across
  // candidates cost one cache hit each.
  const Vec2 weberWhole = p.weberPoint();
  const Vec2 centers[2] = {p.sec().center, weberWhole};
  std::vector<bool> isCandidate(n, false);
  for (const Vec2& c : centers) {
    double dmin = std::numeric_limits<double>::infinity();
    for (const Vec2& q : p.points()) dmin = std::min(dmin, geom::dist(q, c));
    for (std::size_t i = 0; i < n; ++i) {
      if (geom::dist(p[i], c) <= dmin + tol.dist) isCandidate[i] = true;
    }
  }

  int attempts = 0;
  constexpr int kMaxAttempts = 64;  // bound worst-case detection cost
  for (std::size_t ir = 0; ir < n; ++ir) {
    if (!isCandidate[ir]) continue;
    // Subset case: the center is exactly the SEC center; propose vacant rays
    // and verify each.
    {
      const Vec2 c = centers[0];
      const double rad = geom::dist(p[ir], c);
      if (rad > tol.dist) {
        for (const VacancyCandidate& cand : proposeVacancies(p, ir, c, tol)) {
          if (!cand.plausible) continue;
          if (++attempts > kMaxAttempts) return std::nullopt;
          const Vec2 rPrime =
              c + Vec2{std::cos(cand.thetaV), std::sin(cand.thetaV)} * rad;
          if (auto info = verifyShift(p, ir, rPrime, c, tol)) return info;
        }
      }
    }
    // Whole-configuration case: free-center grid fit on the static robots.
    for (const Vec2& rPrime :
         refineWholeGridCandidates(p, ir, weberWhole, tol)) {
      if (++attempts > kMaxAttempts) return std::nullopt;
      if (auto info = verifyShift(p, ir, rPrime, weberWhole, tol)) {
        return info;
      }
    }
    // Bi-angled PAIR case (reg(P') is a mirror pair, |Q| = 2): the pair's
    // occupied family has a single ray, so modular reduction proposes
    // nothing. The vacant ray is instead pinned by Definition 2's
    // virtual-axis condition: it is the mirror image of the partner's ray
    // across a symmetry axis of the static remainder P - {r}.
    {
      const Vec2 c = centers[0];
      const double rad = geom::dist(p[ir], c);
      if (rad > tol.dist) {
        std::vector<Vec2> rest;
        for (std::size_t q = 0; q < n; ++q) {
          if (q != ir) rest.push_back(p[q]);
        }
        const Configuration restCfg(std::move(rest));
        const double dirR = (p[ir] - c).arg();
        for (double axis : symmetryAxes(restCfg, c, tol)) {
          for (const Vec2& q : restCfg.points()) {
            const Vec2 dq = q - c;
            if (dq.norm() <= tol.dist) continue;
            const double thetaV = geom::norm2pi(2.0 * axis - dq.arg());
            if (std::fabs(geom::normPi(thetaV - dirR)) > 0.6) continue;
            if (++attempts > kMaxAttempts) return std::nullopt;
            const Vec2 rPrime =
                c + Vec2{std::cos(thetaV), std::sin(thetaV)} * rad;
            if (auto info = verifyShift(p, ir, rPrime, c, tol)) return info;
          }
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace shifted

using shifted::shiftedRegularSetOf;

}  // namespace apf::oracle
