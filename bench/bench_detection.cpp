/// \file bench_detection.cpp
/// Experiment T1b / F1 — detection accuracy of the Definition-1/2/3
/// machinery on generated corpora: positives must be found (with the right
/// parameters), negatives must be rejected. This is the quantitative
/// counterpart of the paper's figures 1-2, which only illustrate the
/// definitions.
///
/// Expected shape: 100% on every row — the detectors are
/// candidates + exact verification, so misses/false-positives indicate
/// numerical trouble, not heuristic gaps.

#include <cmath>

#include "bench/common.h"
#include "config/regular.h"
#include "config/shifted.h"
#include "geom/angle.h"

using namespace apf;
using namespace apf::bench;
using config::Configuration;
using geom::kTwoPi;

int main() {
  const int kCases = 100;
  Table table("T1b: detection accuracy (100 cases per row)",
              "bench_detection.csv",
              {"corpus", "expected", "correct", "rate_pct"});

  auto row = [&](const char* name, const char* expected, int correct) {
    table.row({name, expected, std::to_string(correct) + "/" +
                                   std::to_string(kCases),
               io::fmt(100.0 * correct / kCases, 1)});
  };

  // Equiangular whole configurations (random m, radii, phase, center).
  {
    int ok = 0;
    for (int t = 0; t < kCases; ++t) {
      config::Rng rng(100 + t);
      std::uniform_int_distribution<int> um(7, 16);
      std::uniform_real_distribution<double> ur(0.5, 3.0);
      const int m = um(rng);
      std::vector<double> radii(m);
      for (double& r : radii) r = ur(rng);
      const config::Vec2 center{ur(rng) - 1.5, ur(rng) - 1.5};
      const Configuration p = config::equiangularSet(radii, center, ur(rng));
      const auto info = config::checkRegularFreeCenter(p);
      ok += info && !info->biangular &&
            geom::dist(info->grid.center, center) < 1e-6;
    }
    row("equiangular", "detected+center", ok);
  }

  // Bi-angled whole configurations.
  {
    int ok = 0;
    for (int t = 0; t < kCases; ++t) {
      config::Rng rng(200 + t);
      std::uniform_int_distribution<int> um(4, 8);
      std::uniform_real_distribution<double> ur(0.5, 2.5);
      const int m = 2 * um(rng);
      const double pairSum = 2.0 * kTwoPi / m;
      std::uniform_real_distribution<double> ua(0.15 * pairSum,
                                                0.45 * pairSum);
      std::vector<double> radii(m);
      for (double& r : radii) r = ur(rng);
      const config::Vec2 center{ur(rng) - 1.0, ur(rng) - 1.0};
      const Configuration p =
          config::biangularSet(m, ua(rng), radii, center, ur(rng));
      const auto info = config::checkRegularFreeCenter(p);
      ok += info && info->biangular &&
            geom::dist(info->grid.center, center) < 1e-6;
    }
    row("bi-angled", "detected+center", ok);
  }

  // Shifted whole configurations: random m, eps in (0, 1/4].
  {
    int ok = 0;
    for (int t = 0; t < kCases; ++t) {
      config::Rng rng(300 + t);
      std::uniform_int_distribution<int> um(7, 14);
      std::uniform_real_distribution<double> ue(0.02, 0.25);
      std::uniform_real_distribution<double> up(0.0, kTwoPi);
      const int m = um(rng);
      const double eps = ue(rng);
      std::vector<double> radii(m, 2.0);
      const std::size_t shiftedIdx = rng() % m;
      radii[shiftedIdx] = 1.0;
      Configuration p = config::equiangularSet(radii, {}, up(rng));
      p[shiftedIdx] = p[shiftedIdx].rotated(eps * kTwoPi / m);
      const auto info = config::shiftedRegularSetOf(p);
      ok += info && info->shiftedRobot == shiftedIdx &&
            std::fabs(info->epsilon - eps) < 1e-5;
    }
    row("shifted (whole)", "robot+eps", ok);
  }

  // Shifted bi-angled whole configurations: random even m, gaps alpha <
  // beta, random center, the innermost robot turned by eps in (0, 1/4] of
  // alphamin(P') = alpha toward either neighbour. Toward its alpha
  // neighbour that is a shifted set; toward its beta neighbour the turn
  // widens the robot's smallest angle, which condition (b) forbids, so
  // nothing may be detected.
  {
    int ok = 0;
    for (int t = 0; t < kCases; ++t) {
      config::Rng rng(700 + t);
      std::uniform_int_distribution<int> um(3, 8);
      std::uniform_real_distribution<double> ur(1.5, 3.0);
      std::uniform_real_distribution<double> ue(0.0, 0.25);
      std::uniform_real_distribution<double> up(0.0, kTwoPi);
      const int m = 2 * um(rng);
      const double pairSum = 2.0 * kTwoPi / m;
      const double alpha =
          std::uniform_real_distribution<double>(0.15 * pairSum,
                                                 0.45 * pairSum)(rng);
      const double eps = 0.25 - ue(rng);  // (0, 1/4]
      const double side = (rng() % 2 == 0) ? 1.0 : -1.0;
      std::vector<double> radii(m);
      for (double& r : radii) r = ur(rng);
      const std::size_t shiftedIdx = rng() % m;
      radii[shiftedIdx] = 1.0;
      const config::Vec2 center{ur(rng) - 2.25, ur(rng) - 2.25};
      Configuration p =
          config::biangularSet(m, alpha, radii, center, up(rng));
      p[shiftedIdx] =
          center + (p[shiftedIdx] - center).rotated(side * eps * alpha);
      // Ray k is followed by an alpha gap when k is even.
      const bool towardAlpha = (side > 0) == (shiftedIdx % 2 == 0);
      const auto info = config::shiftedRegularSetOf(p);
      ok += towardAlpha ? info && info->biangular &&
                              info->shiftedRobot == shiftedIdx &&
                              std::fabs(info->epsilon - eps) < 1e-5
                        : !info.has_value();
    }
    row("shifted (whole, bi-angled)", "robot+eps | none (cond. b)", ok);
  }

  // Symmetric configurations: Property 1 (a regular set must exist).
  {
    int ok = 0;
    for (int t = 0; t < kCases; ++t) {
      config::Rng rng(400 + t);
      std::uniform_int_distribution<int> urho(2, 6);
      const Configuration p =
          config::symmetricConfiguration(urho(rng), 3, rng);
      ok += config::regularSetOf(p).has_value();
    }
    row("symmetric (Property 1)", "reg(P) exists", ok);
  }

  // Negatives: random general-position configurations.
  {
    int ok = 0;
    for (int t = 0; t < kCases; ++t) {
      config::Rng rng(500 + t);
      const Configuration p = config::randomConfiguration(10, rng);
      ok += !config::regularSetOf(p).has_value() &&
            !config::shiftedRegularSetOf(p).has_value();
    }
    row("random (negatives)", "nothing detected", ok);
  }

  // Near-misses: a regular set with one robot pushed off its ray by far
  // more than the tolerance (but less than a ray gap) must NOT be detected
  // as regular, and the off-ray displacement exceeds the legal shift.
  {
    int ok = 0;
    for (int t = 0; t < kCases; ++t) {
      config::Rng rng(600 + t);
      std::uniform_int_distribution<int> um(7, 12);
      const int m = um(rng);
      std::vector<double> radii(m, 2.0);
      Configuration p = config::equiangularSet(radii, {}, 0.1 * t);
      p[0] = p[0].rotated(0.45 * kTwoPi / m);  // beyond eps = 1/4
      const auto reg = config::checkRegularFreeCenter(p);
      const auto sh = config::shiftedRegularSetOf(p);
      ok += !reg && !sh;
    }
    row("off-ray (near miss)", "rejected", ok);
  }

  table.print();
  return 0;
}
