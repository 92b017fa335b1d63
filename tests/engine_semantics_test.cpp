/// Scheduler-semantics tests: the observable guarantees of the three
/// execution models (paper §1-2), checked with instrumented algorithms.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "config/generator.h"
#include "core/phases.h"
#include "geom/angle.h"
#include "sim/engine.h"

namespace apf::sim {
namespace {

using config::Configuration;
using geom::Vec2;

/// Records a fingerprint of every snapshot it computes on (sorted pairwise
/// distances — frame-invariant), then moves a little to keep the run busy.
/// It sees only the Computes the engine ran: a repeated randomness-free
/// stay is answered without calling it (sim/algorithm.h), so the tests
/// count Computes with Metrics::phaseActivations, not with `seen`.
class SnapshotRecorder : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    // Fingerprint: sorted pairwise distances, normalized by the largest —
    // invariant under the private frame's rotation, reflection AND scale.
    std::vector<double> dists;
    for (std::size_t i = 0; i < snap.robots.size(); ++i) {
      for (std::size_t j = i + 1; j < snap.robots.size(); ++j) {
        dists.push_back(geom::dist(snap.robots[i], snap.robots[j]));
      }
    }
    std::sort(dists.begin(), dists.end());
    if (!dists.empty() && dists.back() > 0) {
      for (double& d : dists) {
        d = std::round(d / dists.back() * 1e9) / 1e9;
      }
    }
    seen.push_back(dists);
    // Move halfway toward the centroid (shrinks forever, never terminal
    // until the event cap).
    Vec2 centroid{};
    for (const auto& p : snap.robots.points()) centroid += p;
    centroid = centroid / static_cast<double>(snap.robots.size());
    geom::Path path{Vec2{}};
    if (centroid.norm() > 1e-6) path.lineTo(centroid * 0.25);
    return Action{path, core::kBaseline};
  }
  std::string name() const override { return "recorder"; }
  mutable std::vector<std::vector<double>> seen;
};

Configuration square() {
  return Configuration({{2, 2}, {-2, 2}, {-2, -2}, {2, -2}});
}

TEST(SchedulerSemanticsTest, FsyncRobotsShareEachRoundsSnapshot) {
  // In FSYNC all robots Look simultaneously: within each round the four
  // recorded fingerprints must be identical.
  SnapshotRecorder algo;
  EngineOptions opts;
  opts.seed = 3;
  opts.sched.kind = sched::SchedulerKind::FSync;
  opts.maxEvents = 60;  // a few rounds
  Engine eng(square(), square(), algo, opts);
  const RunResult res = eng.run();
  const std::uint64_t computes =
      res.metrics.phaseActivations.at(core::kBaseline);
  ASSERT_GE(computes, 8u);
  // Every decision here moves, so every Compute reached the recorder and
  // `seen` holds whole rounds.
  ASSERT_EQ(res.metrics.computesReused, 0u);
  ASSERT_EQ(algo.seen.size(), computes);
  for (std::size_t round = 0; round + 4 <= algo.seen.size(); round += 4) {
    for (int k = 1; k < 4; ++k) {
      EXPECT_EQ(algo.seen[round], algo.seen[round + k])
          << "round " << round / 4;
    }
  }
}

TEST(SchedulerSemanticsTest, AsyncProducesStaleSnapshots) {
  // Under ASYNC, at least one Compute must act on a snapshot that differs
  // from the configuration at Compute time. We detect it indirectly: the
  // set of distinct fingerprints exceeds the number of distinct
  // configurations any synchronous schedule could have produced is hard to
  // bound, so instead check the direct signature — two robots computed on
  // the SAME fingerprint while a move happened between their Looks is
  // unobservable here; we settle for: distinct fingerprints < computes
  // (some robots shared stale views) AND > 1 (the config did change).
  SnapshotRecorder algo;
  EngineOptions opts;
  opts.seed = 5;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.maxEvents = 400;
  Engine eng(square(), square(), algo, opts);
  const RunResult res = eng.run();
  std::set<std::vector<double>> distinct(algo.seen.begin(), algo.seen.end());
  EXPECT_GT(distinct.size(), 1u);
  EXPECT_LT(distinct.size(), res.metrics.phaseActivations.at(core::kBaseline));
}

TEST(SchedulerSemanticsTest, SsyncActiveSubsetVaries) {
  // SSYNC activates arbitrary nonempty subsets: over many rounds both
  // "everyone active" and "partial subset" rounds must occur, and every
  // robot must be activated eventually (fairness).
  SnapshotRecorder algo;
  EngineOptions opts;
  opts.seed = 7;
  opts.sched.kind = sched::SchedulerKind::SSync;
  opts.sched.activationProb = 0.5;
  opts.maxEvents = 400;
  Engine eng(square(), square(), algo, opts);
  const RunResult res = eng.run();
  // 4 robots, ~0.5 activation: computes strictly between one robot per
  // round and all robots every round.
  const std::uint64_t computes =
      res.metrics.phaseActivations.at(core::kBaseline);
  EXPECT_GT(computes, 100u);
  EXPECT_LT(computes, 400u);
}

TEST(SchedulerSemanticsTest, EventAccountingConsistent) {
  SnapshotRecorder algo;
  for (auto kind : {sched::SchedulerKind::FSync, sched::SchedulerKind::SSync,
                    sched::SchedulerKind::Async}) {
    EngineOptions opts;
    opts.seed = 11;
    opts.sched.kind = kind;
    opts.maxEvents = 300;
    Engine eng(square(), square(), algo, opts);
    const auto res = eng.run();
    EXPECT_GE(res.metrics.events, res.metrics.cycles);
    EXPECT_GT(res.metrics.distance, 0.0);
  }
}

/// Steps sideways: perpendicular (ccw in the LOCAL frame) to the observed
/// centroid direction. World-frame handedness of the step reveals the
/// robot's chirality.
class TurnLeft : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    Vec2 centroid{};
    for (const auto& p : snap.robots.points()) centroid += p;
    centroid = centroid / static_cast<double>(snap.robots.size());
    if (centroid.norm() < 1e-9) return Action::stay(core::kBaseline);
    const Vec2 step = centroid.normalized().perp() * 0.05;
    geom::Path path{Vec2{}};
    path.lineTo(step);
    return Action{path, core::kBaseline};
  }
  std::string name() const override { return "turn-left"; }
};

int mixedHandedness(bool commonChirality, std::uint64_t seed) {
  TurnLeft algo;
  EngineOptions opts;
  opts.seed = seed;
  opts.commonChirality = commonChirality;
  opts.sched.kind = sched::SchedulerKind::FSync;
  opts.maxEvents = 8;  // one round is enough
  config::Rng rng(seed);
  const Configuration start = config::randomConfiguration(8, rng, 3.0, 0.2);
  Engine eng(start, start, algo, opts);
  Vec2 centroid{};
  for (const auto& p : start.points()) centroid += p;
  centroid = centroid / 8.0;
  eng.step();
  int pos = 0, neg = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const Vec2 d = eng.positions()[i] - start[i];
    if (d.norm() < 1e-9) continue;
    const Vec2 toward = centroid - start[i];
    ((toward.cross(d) > 0) ? pos : neg) += 1;
  }
  return std::min(pos, neg);  // 0 = consistent handedness
}

TEST(SchedulerSemanticsTest, ChiralityOptionControlsFrameHandedness) {
  // With common chirality every robot's "left" is the same world rotation;
  // without it, reflected frames flip some robots' steps.
  EXPECT_EQ(mixedHandedness(true, 21), 0);
  int mixed = 0;
  for (std::uint64_t seed : {21ull, 22ull, 23ull}) {
    mixed += mixedHandedness(false, seed);
  }
  EXPECT_GT(mixed, 0) << "no reflected frame in 24 robots is implausible";
}

TEST(SchedulerSemanticsTest, ObserverSeesEveryDistanceUnit) {
  SnapshotRecorder algo;
  EngineOptions opts;
  opts.seed = 13;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.maxEvents = 200;
  Engine eng(square(), square(), algo, opts);
  double observed = 0.0;
  Configuration prev = eng.positions();
  eng.setObserver([&](const Engine& e, std::size_t robot) {
    observed += geom::dist(e.positions()[robot], prev[robot]);
    prev = e.positions();
  });
  const auto res = eng.run();
  // Straight-line paths only in this algorithm: observer displacement sums
  // to the metric exactly.
  EXPECT_NEAR(observed, res.metrics.distance, 1e-9);
}

}  // namespace
}  // namespace apf::sim
