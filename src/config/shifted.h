#pragma once

/// \file shifted.h
/// epsilon-shifted-m-regular sets (paper Definition 3, Theorem 1).
///
/// P contains an eps-shifted-m-regular set when replacing one robot r by a
/// position r' on the same circle yields a configuration P' whose regular
/// set reg(P') contains r', with (a) angmin(r, c, r') = eps * alphamin(P'),
/// 0 < eps <= 1/4, (b) alphamin(r, P) < alphamin(r', P'), and (c) r and r'
/// at the minimum distance from the center among all robots.
///
/// Detection strategy: candidate generation + exact verification.
/// Candidates for r are the robots at the innermost distance ring. For
/// each, candidate positions r' come from three searches:
///  - subset grids: vacant-ray directions theta_v, proposed around the SEC
///    center by reducing every other robot's direction modulo a
///    hypothesized equiangular family step (this covers bi-angled grids
///    too, whose rays split into two equiangular families);
///  - whole-configuration grids: a Gauss-Newton fit of the n - 1 static
///    robots to an n-ray grid (equiangular, or bi-angled for even n) with
///    a free center, seeded at the Weber points of P and of P - {r}. Only
///    the gap between static robots that holds r's own direction around
///    the seed is fitted as the vacancy. Theorem 1 makes the shifted set
///    unique, and condition (a) puts r within eps * alphamin(P') <=
///    alphamin(P') / 4 of its vacant ray, so r lies inside the vacancy's
///    gap, at least 3/4 alphamin(P') from either static neighbour. A fit
///    of any other gap yields an r' that condition (a) rejects, unless the
///    seed is so far off the grid's center that it reorders the rays
///    around r. That is an argument, not a proof:
///    tests/kernel_oracle_test.cpp checks the search field by field
///    against a copy that fits every gap (tests/kernel_oracle.h);
///  - mirror pairs (|reg(P')| = 2): the vacant ray is the partner's ray
///    mirrored across a symmetry axis of P - {r}.
/// Each candidate is then verified *exactly* by running the full
/// Definition-2 machinery on P' and checking conditions (a)-(c); only
/// verified candidates are reported, so the heuristic generation can only
/// cause false negatives, never false positives — and on configurations
/// the algorithms actually produce it is exhaustive (tested).

#include <optional>

#include "config/regular.h"

namespace apf::config {

/// A detected shifted regular set.
struct ShiftedSetInfo {
  /// reg(P'): the associated regular set, indices valid in P' (see below);
  /// kept mainly for its grid.
  geom::AngularGrid grid;
  bool biangular = false;
  /// Indices in P of the robots of the *shifted* regular set reg(P)
  /// (= reg(P') with r' replaced by r), ordered by grid ray.
  std::vector<std::size_t> indices;
  /// Index in P of the shifted robot r.
  std::size_t shiftedRobot = 0;
  /// The associated position r' (on the vacant grid ray, same circle as r).
  Vec2 associatedPos;
  /// The shift eps in (0, 1/4].
  double epsilon = 0.0;
  /// alphamin(P') — the unit in which the shift is measured; needed by the
  /// election algorithm to compute target positions for new shifts.
  double alphaMinPPrime = 0.0;
  /// True when reg(P') is the entire P'.
  bool wholeConfig = false;
};

/// Definition 3 detection. Returns the unique shifted set (Theorem 1
/// guarantees uniqueness for n >= 7) or nullopt.
std::optional<ShiftedSetInfo> shiftedRegularSetOf(
    const Configuration& p, const Tol& tol = geom::kDefaultTol);

}  // namespace apf::config
