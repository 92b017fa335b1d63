/// Angle normalization, bit for bit (signed zeros, infinities and NaN
/// included), on special values and random corpora; and the SEC,
/// SEC-holder, symmetry-axis and shifted-set kernels against their
/// reference copies in kernel_oracle.h: every double and every index must
/// be equal (==, no tolerance), for n = 1..64, on generator corpora
/// (regular, equiangular, bi-angled, shifted, axial, rotationally
/// symmetric, random), on the same corpora under random similarities
/// (reflections included), and on points placed at the 1e-9 tolerance
/// boundary. The shifted-set search is also compared on whole-grid
/// shifted sets (equiangular and bi-angled, shifted either way, and at the
/// tolerance boundary) and on every configuration psi_RSB computes on
/// from symmetric starts.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "config/generator.h"
#include "config/shifted.h"
#include "config/symmetry.h"
#include "core/analysis.h"
#include "core/rsb.h"
#include "geom/angle.h"
#include "geom/sec.h"
#include "geom/transform.h"
#include "io/patterns.h"
#include "kernel_oracle.h"
#include "sim/engine.h"
#include "sim/scenario.h"

namespace apf::config {
namespace {

using geom::Circle;
using geom::kPi;
using geom::kTwoPi;
using geom::Similarity;

constexpr std::size_t kMaxN = 64;
constexpr Tol kEngineTol{1e-6, 1e-6};

/// A generated configuration. The generators below put the center of
/// symmetry (for the axial one, a point of the axis) at the origin.
struct Case {
  std::string name;
  Configuration p;
};

std::vector<double> randomRadii(std::size_t n, Rng& rng) {
  std::uniform_real_distribution<double> u(0.5, 2.0);
  std::vector<double> r(n);
  for (double& x : r) x = u(rng);
  return r;
}

/// One configuration of each generator family that makes sense for n.
std::vector<Case> corpus(std::size_t n, Rng& rng) {
  std::uniform_real_distribution<double> uphase(0.0, kTwoPi);
  std::vector<Case> out;
  out.push_back({"regular", regularPolygon(n, 1.5, {}, uphase(rng))});
  const auto radii = randomRadii(n, rng);
  out.push_back({"equiangular", equiangularSet(radii, {}, uphase(rng))});
  if (n >= 2 && n % 2 == 0) {
    const double alpha = 0.3 * (4.0 * kPi / static_cast<double>(n));
    out.push_back(
        {"biangular", biangularSet(n, alpha, radii, {}, uphase(rng))});
  }
  if (n >= 3) {
    // An equiangular set with one robot turned off its ray by a fraction
    // of the angle between rays.
    Configuration p = equiangularSet(radii, {}, uphase(rng));
    const double shift = 0.2 * kTwoPi / static_cast<double>(n);
    p[n / 2] = p[n / 2].rotated(shift);
    out.push_back({"shifted", std::move(p)});
  }
  out.push_back({"axial", axialConfiguration(static_cast<int>(n / 2),
                                             static_cast<int>(n % 2), rng)});
  for (std::size_t rho = n / 2; rho >= 2; --rho) {
    if (n % rho != 0) continue;
    out.push_back({"symmetric",
                   symmetricConfiguration(static_cast<int>(rho),
                                          static_cast<int>(n / rho), rng)});
    break;
  }
  out.push_back({"random", randomConfiguration(n, rng, 5.0, 0.05)});
  return out;
}

Similarity randomSimilarity(Rng& rng, bool reflect) {
  std::uniform_real_distribution<double> ua(0.0, kTwoPi);
  std::uniform_real_distribution<double> us(0.1, 10.0);
  std::uniform_real_distribution<double> uo(-20.0, 20.0);
  return {ua(rng), us(rng), reflect, Vec2{uo(rng), uo(rng)}};
}

/// config::shiftedRegularSetOf == oracle::shiftedRegularSetOf on every
/// field. Returns whether a shifted set was found.
bool expectSameShiftedSet(const Configuration& p, const std::string& what,
                          const Tol& tol = geom::kDefaultTol) {
  const auto fast = shiftedRegularSetOf(p, tol);
  const auto slow = oracle::shiftedRegularSetOf(p, tol);
  EXPECT_EQ(fast.has_value(), slow.has_value()) << what;
  if (!fast || !slow) return false;
  EXPECT_EQ(fast->indices, slow->indices) << what;
  EXPECT_EQ(fast->shiftedRobot, slow->shiftedRobot) << what;
  EXPECT_EQ(fast->associatedPos.x, slow->associatedPos.x) << what;
  EXPECT_EQ(fast->associatedPos.y, slow->associatedPos.y) << what;
  EXPECT_EQ(fast->epsilon, slow->epsilon) << what;
  EXPECT_EQ(fast->alphaMinPPrime, slow->alphaMinPPrime) << what;
  EXPECT_EQ(fast->grid.center.x, slow->grid.center.x) << what;
  EXPECT_EQ(fast->grid.center.y, slow->grid.center.y) << what;
  EXPECT_EQ(fast->grid.theta0, slow->grid.theta0) << what;
  EXPECT_EQ(fast->grid.alpha, slow->grid.alpha) << what;
  EXPECT_EQ(fast->grid.beta, slow->grid.beta) << what;
  EXPECT_EQ(fast->grid.numRays, slow->grid.numRays) << what;
  EXPECT_EQ(fast->biangular, slow->biangular) << what;
  EXPECT_EQ(fast->wholeConfig, slow->wholeConfig) << what;
  return true;
}

/// Fast kernel == oracle on every output, at each given tolerance, with the
/// axes taken about `center` and about C(P)'s center.
void expectSameAsOracle(const Configuration& p, Vec2 center,
                        const std::string& what,
                        std::initializer_list<Tol> tols = {geom::kDefaultTol,
                                                           kEngineTol}) {
  const Circle fast = geom::smallestEnclosingCircle(p.span());
  const Circle slow = oracle::smallestEnclosingCircle(p.span());
  EXPECT_EQ(fast.center.x, slow.center.x) << what;
  EXPECT_EQ(fast.center.y, slow.center.y) << what;
  EXPECT_EQ(fast.radius, slow.radius) << what;

  std::vector<Vec2> centers{center};
  if (slow.center != center) centers.push_back(slow.center);
  for (const Tol& tol : tols) {
    const std::string at = what + " tol=" + std::to_string(tol.dist);
    EXPECT_EQ(geom::secHolders(p.span(), tol),
              oracle::secHolders(p.span(), tol))
        << at;
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(geom::holdsSec(p.span(), i, tol),
                oracle::holdsSec(p.span(), i, tol))
          << at << " i=" << i;
    }
    for (const Vec2 c : centers) {
      EXPECT_EQ(symmetryAxes(p, c, tol), oracle::symmetryAxes(p, c, tol))
          << at << " center=(" << c.x << "," << c.y << ")";
    }
    expectSameShiftedSet(p, at, tol);
  }
}

TEST(KernelOracleTest, Norm2PiMatchesFmodBitForBit) {
  using Lim = std::numeric_limits<double>;
  const double inf = Lim::infinity();
  std::vector<double> xs = {0.0,
                            -0.0,
                            kPi,
                            -kPi,
                            kTwoPi,
                            -kTwoPi,
                            2 * kTwoPi,
                            -2 * kTwoPi,
                            1e300,
                            -1e300,
                            Lim::max(),
                            -Lim::max(),
                            Lim::min(),
                            -Lim::min(),
                            Lim::denorm_min(),
                            -Lim::denorm_min(),
                            inf,
                            -inf,
                            Lim::quiet_NaN(),
                            -Lim::quiet_NaN()};
  // The ulps on both sides of +-2pi and +-4pi: where the fast path ends.
  for (const double edge : {kTwoPi, -kTwoPi, 2 * kTwoPi, -2 * kTwoPi}) {
    double below = edge;
    double above = edge;
    for (int k = 0; k < 4; ++k) {
      below = std::nextafter(below, -inf);
      above = std::nextafter(above, inf);
      xs.push_back(below);
      xs.push_back(above);
    }
  }
  Rng rng(2024);
  std::uniform_real_distribution<double> wide(-8 * kTwoPi, 8 * kTwoPi);
  std::uniform_real_distribution<double> huge(-1e9, 1e9);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    xs.push_back(wide(rng));
    xs.push_back(huge(rng));
    // The library's inputs: arguments of vectors and their differences.
    const double a = Vec2{unit(rng), unit(rng)}.arg();
    const double b = Vec2{unit(rng), unit(rng)}.arg();
    xs.push_back(a);
    xs.push_back(a - b);
  }
  for (const double x : xs) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(geom::norm2pi(x)),
              std::bit_cast<std::uint64_t>(oracle::norm2pi(x)))
        << std::hexfloat << x;
  }
}

TEST(KernelOracleTest, GeneratorCorporaMatchBitForBit) {
  for (std::size_t n = 1; n <= kMaxN; ++n) {
    Rng rng(1000 + n);
    for (const Case& c : corpus(n, rng)) {
      expectSameAsOracle(c.p, {}, c.name + " n=" + std::to_string(n));
    }
  }
}

void expectCorporaUnderSimilaritiesMatch(bool reflect, std::uint64_t seed) {
  for (std::size_t n = 1; n <= kMaxN; ++n) {
    Rng rng(seed + n);
    for (const Case& c : corpus(n, rng)) {
      const Similarity t = randomSimilarity(rng, reflect);
      expectSameAsOracle(c.p.transformed(t), t.apply(Vec2{}),
                         c.name + " n=" + std::to_string(n));
    }
  }
}

TEST(KernelOracleTest, CorporaUnderRandomRotationsMatchBitForBit) {
  expectCorporaUnderSimilaritiesMatch(/*reflect=*/false, 2000);
}

TEST(KernelOracleTest, CorporaUnderRandomReflectionsMatchBitForBit) {
  expectCorporaUnderSimilaritiesMatch(/*reflect=*/true, 3000);
}

/// Offsets just below, at and just above the 1e-9 distance tolerance.
const double kBoundaryOffsets[] = {1e-9 * (1.0 - 1e-6), 1e-9,
                                   1e-9 * (1.0 + 1e-6)};

/// Runs `check(n, eps, tag, rng)` for n = 1..64 and each boundary offset;
/// the configurations are compared at the default tolerance only, the one
/// the offsets straddle.
template <typename Check>
void forBoundaryCases(std::uint64_t seed, Check check) {
  for (std::size_t n = 1; n <= kMaxN; ++n) {
    Rng rng(seed + n);
    for (const double eps : kBoundaryOffsets) {
      const std::string tag =
          " n=" + std::to_string(n) + " eps=" + std::to_string(eps * 1e9);
      check(n, eps, tag, rng);
    }
  }
}

double randomPhase(Rng& rng) {
  return std::uniform_real_distribution<double>(0.0, kTwoPi)(rng);
}

TEST(KernelOracleTest, RadialOffsetsAtToleranceMatchBitForBit) {
  // A vertex of a regular polygon pushed off C(P) radially, outward and
  // inward: the on-boundary and holder tests sit at the tolerance.
  forBoundaryCases(4000, [](std::size_t n, double eps, const std::string& tag,
                            Rng& rng) {
    for (const double sign : {1.0, -1.0}) {
      Configuration p = regularPolygon(n, 1.0, {}, randomPhase(rng));
      p[0] = p[0] * (1.0 + sign * eps);
      expectSameAsOracle(p, {}, "radial" + tag, {geom::kDefaultTol});
    }
  });
}

TEST(KernelOracleTest, MirrorOffsetsAtToleranceMatchBitForBit) {
  // One mirror twin of an axial configuration moved off its mirror
  // position, along the axis normal and then diagonally: the reflection
  // match sits at the tolerance.
  forBoundaryCases(5000, [](std::size_t n, double eps, const std::string& tag,
                            Rng& rng) {
    if (n < 2) return;
    Configuration p = axialConfiguration(static_cast<int>(n / 2),
                                         static_cast<int>(n % 2), rng);
    p[1] = p[1] + Vec2{eps, 0.0};
    expectSameAsOracle(p, {}, "mirror" + tag, {geom::kDefaultTol});
    p[1] = p[1] + Vec2{0.0, eps};
    expectSameAsOracle(p, {}, "mirror-diagonal" + tag, {geom::kDefaultTol});
  });
}

TEST(KernelOracleTest, NearDuplicatesAtToleranceMatchBitForBit) {
  // A random point and a copy of it eps away.
  forBoundaryCases(6000, [](std::size_t n, double eps, const std::string& tag,
                            Rng& rng) {
    if (n < 2) return;
    Configuration p = randomConfiguration(n - 1, rng, 1.0, 0.05);
    const double a = randomPhase(rng);
    p.push_back(p[0] + Vec2{std::cos(a), std::sin(a)} * eps);
    expectSameAsOracle(p, p.sec().center, "near-duplicate" + tag,
                       {geom::kDefaultTol});
  });
}

TEST(KernelOracleTest, NearCenterAtToleranceMatchBitForBit) {
  // A regular polygon plus one point eps away from its center, the center
  // the axes are taken about.
  forBoundaryCases(7000, [](std::size_t n, double eps, const std::string& tag,
                            Rng& rng) {
    if (n < 2) return;
    Configuration p = regularPolygon(n - 1, 1.0, {}, randomPhase(rng));
    p.push_back(Vec2{eps, 0.0});
    expectSameAsOracle(p, {}, "near-center" + tag, {geom::kDefaultTol});
  });
}

constexpr std::size_t kMinShiftedN = 4;  // below, no shifted set exists

/// A whole-configuration shifted set: n robots on the rays of an
/// equiangular grid (or, when `biangular`, of a bi-angled one with
/// alpha < beta) about an off-origin center, the unique innermost robot
/// turned off its ray by side * eps * alphamin, side = +1 or -1.
Configuration shiftedWholeSet(std::size_t n, bool biangular, double eps,
                              double side, Rng& rng) {
  std::uniform_real_distribution<double> ur(1.5, 3.0);
  std::uniform_real_distribution<double> uc(-2.0, 2.0);
  std::vector<double> radii(n);
  for (double& r : radii) r = ur(rng);
  const std::size_t shifted = rng() % n;
  radii[shifted] = 1.0;
  const Vec2 center{uc(rng), uc(rng)};
  const double pairSum = 2.0 * kTwoPi / static_cast<double>(n);
  const double alpha =
      biangular ? std::uniform_real_distribution<double>(
                      0.15 * pairSum, 0.45 * pairSum)(rng)
                : pairSum / 2.0;
  Configuration p =
      biangular ? biangularSet(n, alpha, radii, center, randomPhase(rng))
                : equiangularSet(radii, center, randomPhase(rng));
  p[shifted] = center + (p[shifted] - center).rotated(side * eps * alpha);
  return p;
}

TEST(KernelOracleTest, ShiftedSetOnShiftedWholeGridsMatches) {
  std::size_t found = 0;
  for (const bool biangular : {false, true}) {
    for (std::size_t n = kMinShiftedN; n <= kMaxN; ++n) {
      if (biangular && n % 2 != 0) continue;
      Rng rng(10000 + 100 * biangular + n);
      const double randomEps =
          0.25 - std::uniform_real_distribution<double>(0.0, 0.25)(rng);
      for (const double eps : {0.125, 0.25, randomEps}) {
        for (const double side : {1.0, -1.0}) {
          const Configuration p =
              shiftedWholeSet(n, biangular, eps, side, rng);
          const std::string what =
              std::string(biangular ? "bi-angled" : "equiangular") +
              " n=" + std::to_string(n) + " eps=" + std::to_string(eps) +
              " side=" + std::to_string(side);
          found += expectSameShiftedSet(p, what);
          const Similarity t = randomSimilarity(rng, /*reflect=*/true);
          found += expectSameShiftedSet(p.transformed(t), what + " moved");
        }
      }
    }
  }
  // The corpus must reach the whole-grid fits: most of its sets are found.
  EXPECT_GT(found, 300u);
}

TEST(KernelOracleTest, ShiftedSetAtToleranceMatches) {
  forBoundaryCases(11000, [](std::size_t n, double eps,
                             const std::string& tag, Rng& rng) {
    if (n < kMinShiftedN) return;
    const double base = kTwoPi / static_cast<double>(n);
    std::vector<double> radii(n, 2.0);
    radii[0] = 1.0;
    const Configuration grid = equiangularSet(radii, {}, randomPhase(rng));
    // A second robot eps farther out than the shifted one: the innermost
    // ring and condition (c) sit at the tolerance.
    Configuration p = grid;
    p[0] = p[0].rotated(0.125 * base);
    p[1] = p[1] * ((1.0 + eps) / 2.0);
    expectSameShiftedSet(p, "ring" + tag);
    // The shifted robot eps off its ray: eps > 0 sits at the tolerance.
    p = grid;
    p[0] = p[0].rotated(eps);
    expectSameShiftedSet(p, "shift" + tag);
    // A static robot eps off its ray: the fit residual sits at the
    // tolerance.
    p = grid;
    p[0] = p[0].rotated(0.125 * base);
    p[n / 2] = p[n / 2].rotated(eps);
    expectSameShiftedSet(p, "static" + tag);
  });
}

/// psi_RSB that records the normalized configuration P each Compute sees.
class RecordingRsb : public sim::Algorithm {
 public:
  explicit RecordingRsb(std::vector<Configuration>* seen) : seen_(seen) {}
  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource& rng) const override {
    if (const core::Analysis a(snap); a.ok()) seen_->push_back(a.P());
    return rsb_.compute(snap, rng);
  }
  std::string name() const override { return rsb_.name(); }

 private:
  core::RsbOnlyAlgorithm rsb_;
  std::vector<Configuration>* seen_;
};

/// Every configuration psi_RSB computes on in an ASYNC run of n robots from
/// the symmetric start of `seed`, capped at maxEvents.
std::vector<Configuration> rsbSnapshots(std::size_t n, std::uint64_t seed,
                                        std::uint64_t maxEvents) {
  sim::Scenario sc;
  sc.algo = "rsb";
  sc.n = n;
  sc.pattern = io::starPattern(n);
  sc.startKind = "symmetric";
  sc.maxEvents = maxEvents;
  std::vector<Configuration> seen;
  const RecordingRsb algo(&seen);
  sim::Engine engine(sim::startFor(sc, seed), sc.pattern, algo,
                     sim::engineOptionsFor(sc, seed));
  engine.run();
  return seen;
}

/// Compares the two searches on every Compute of the runs of seeds
/// 1..seeds; at least one of the configurations must hold a shifted set.
void expectRsbSnapshotsMatch(std::size_t n, std::uint64_t seeds,
                             std::uint64_t maxEvents) {
  std::size_t computes = 0;
  std::size_t found = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const auto seen = rsbSnapshots(n, seed, maxEvents);
    computes += seen.size();
    for (std::size_t i = 0; i < seen.size(); ++i) {
      found += expectSameShiftedSet(
          seen[i], "rsb n=" + std::to_string(n) + " seed=" +
                       std::to_string(seed) + " compute " +
                       std::to_string(i));
    }
  }
  EXPECT_GT(found, 0u) << "n=" << n << ": no shifted set among " << computes
                       << " computes";
}

TEST(KernelOracleTest, ShiftedSetOnRsbRunsN8N16Matches) {
  expectRsbSnapshotsMatch(8, 8, 3000);
  expectRsbSnapshotsMatch(16, 4, 3000);
}

TEST(KernelOracleTest, ShiftedSetOnRsbRunsN24Matches) {
  expectRsbSnapshotsMatch(24, 2, 2000);
}

TEST(KernelOracleTest, ShiftedSetOnRsbRunsN32Matches) {
  expectRsbSnapshotsMatch(32, 1, 2000);
}

}  // namespace
}  // namespace apf::config
