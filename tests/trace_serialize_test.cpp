#include <gtest/gtest.h>

#include <fstream>

#include "config/generator.h"
#include "config/similarity.h"
#include "core/form_pattern.h"
#include "core/phases.h"
#include "io/patterns.h"
#include "io/serialize.h"
#include "sim/engine.h"
#include "sim/trace.h"
#include "tmpdir.h"

namespace apf {
namespace {

using config::Configuration;

TEST(SerializeTest, RoundTripFullPrecision) {
  config::Rng rng(1);
  const Configuration c = config::randomConfiguration(9, rng, 3.0, 0.01);
  std::ostringstream os;
  io::writeConfiguration(os, c);
  const Configuration back = io::parseConfiguration(os.str());
  ASSERT_EQ(back.size(), c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(back[i], c[i]) << i;  // bit-exact round trip
  }
}

TEST(SerializeTest, CommentsAndBlanksSkipped) {
  const Configuration c = io::parseConfiguration(
      "# a pattern\n"
      "1.5 2.5\n"
      "\n"
      "3 4 # trailing comment\n");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], (geom::Vec2{1.5, 2.5}));
  EXPECT_EQ(c[1], (geom::Vec2{3, 4}));
}

TEST(SerializeTest, MalformedInputThrows) {
  EXPECT_THROW(io::parseConfiguration("1.0\n"), std::invalid_argument);
  EXPECT_THROW(io::parseConfiguration("1 2 3\n"), std::invalid_argument);
  EXPECT_THROW(io::loadConfiguration("/nonexistent/nope.txt"),
               std::invalid_argument);
}

TEST(SerializeTest, FileRoundTrip) {
  const TestTempDir tmp;
  const std::string path = tmp.file("config.txt");
  const Configuration c = io::starPattern(7);
  io::saveConfiguration(path, c);
  const Configuration back = io::loadConfiguration(path);
  EXPECT_TRUE(config::coincident(c, back));
}

TEST(TraceTest, RecordsEveryPositionChange) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(2);
  const Configuration start = config::randomConfiguration(8, rng, 4.0, 0.1);
  const Configuration pattern = io::starPattern(8);
  sim::EngineOptions opts;
  opts.seed = 3;
  opts.maxEvents = 300000;
  opts.sched.kind = sched::SchedulerKind::SSync;
  sim::Engine eng(start, pattern, algo, opts);
  sim::Trace trace;
  trace.attach(eng);
  const auto res = eng.run();
  ASSERT_TRUE(res.success);
  EXPECT_FALSE(trace.steps().empty());
  // Trails end at the final positions.
  const auto trails = trace.trails();
  ASSERT_EQ(trails.size(), start.size());
  for (std::size_t i = 0; i < trails.size(); ++i) {
    EXPECT_EQ(trails[i].back(), eng.positions()[i]) << i;
    EXPECT_EQ(trails[i].front(), start[i]) << i;
  }
  // The trace records positions per move event, so its polyline length is
  // a chord-wise LOWER bound on the engine's arclength metric (arcs are
  // recorded by endpoints), and should be the bulk of it.
  double total = 0.0;
  for (double d : trace.distances()) total += d;
  EXPECT_LE(total, res.metrics.distance + 1e-6);
  EXPECT_GE(total, 0.5 * res.metrics.distance);
  // Events are non-decreasing.
  for (std::size_t k = 1; k < trace.steps().size(); ++k) {
    EXPECT_LE(trace.steps()[k - 1].event, trace.steps()[k].event);
  }
}

/// Walks straight toward the farthest observed robot, half the distance
/// (same deterministic algorithm as scripted_test.cpp).
class ChaseFarthest : public sim::Algorithm {
 public:
  sim::Action compute(const sim::Snapshot& snap,
                      sched::RandomSource&) const override {
    double best = -1;
    geom::Vec2 target{};
    for (const auto& q : snap.robots.points()) {
      if (q.norm() > best) {
        best = q.norm();
        target = q;
      }
    }
    geom::Path p{geom::Vec2{}};
    if (best > 1e-9) p.lineTo(target * 0.5);
    return sim::Action{p, core::kBaseline};
  }
  std::string name() const override { return "chase"; }
};

TEST(TraceTest, TrailsAndDistancesExactOnScriptedRun) {
  // Fully scripted, frame randomization off: every recorded position is
  // known in closed form, so trails() and distances() are checked EXACTLY.
  using Op = sched::ScriptedEvent::Op;
  const Configuration start({{0, 0}, {10, 0}});
  ChaseFarthest algo;
  sim::EngineOptions opts;
  opts.sched.kind = sched::SchedulerKind::Scripted;
  opts.sched.delta = 0.5;
  opts.randomizeFrames = false;
  opts.maxEvents = 8;
  opts.script = {
      {0, Op::Look, 0},
      {0, Op::Compute, 0},  // path (0,0) -> (5,0), length 5
      {0, Op::Move, 2.0},   // reaches (2,0)
      {0, Op::Move, 0},     // full move: reaches (5,0), cycle complete
      {1, Op::Look, 0},     // observes robot 0 at (5,0)
      {1, Op::Compute, 0},  // farthest in local frame: (-5,0) -> target
                            // (-2.5,0) local = (7.5,0) world
      {1, Op::Move, 1.0},   // reaches (9,0)
      {1, Op::Move, 0},     // reaches (7.5,0)
  };
  sim::Engine eng(start, start, algo, opts);
  sim::Trace trace;
  trace.attach(eng);
  while (eng.metrics().events < opts.maxEvents && eng.step()) {
  }

  const auto trails = trace.trails();
  ASSERT_EQ(trails.size(), 2u);
  const std::vector<geom::Vec2> expect0 = {{0, 0}, {2, 0}, {5, 0}};
  const std::vector<geom::Vec2> expect1 = {{10, 0}, {9, 0}, {7.5, 0}};
  ASSERT_EQ(trails[0].size(), expect0.size());
  ASSERT_EQ(trails[1].size(), expect1.size());
  for (std::size_t k = 0; k < expect0.size(); ++k) {
    EXPECT_NEAR(trails[0][k].x, expect0[k].x, 1e-12) << k;
    EXPECT_NEAR(trails[0][k].y, expect0[k].y, 1e-12) << k;
  }
  for (std::size_t k = 0; k < expect1.size(); ++k) {
    EXPECT_NEAR(trails[1][k].x, expect1[k].x, 1e-12) << k;
    EXPECT_NEAR(trails[1][k].y, expect1[k].y, 1e-12) << k;
  }
  const auto dists = trace.distances();
  ASSERT_EQ(dists.size(), 2u);
  EXPECT_NEAR(dists[0], 5.0, 1e-12);
  EXPECT_NEAR(dists[1], 2.5, 1e-12);
  EXPECT_NEAR(eng.metrics().distance, 7.5, 1e-12);
}

TEST(TraceTest, CsvHasHeaderAndRows) {
  core::FormPatternAlgorithm algo;
  config::Rng rng(4);
  const Configuration start = config::randomConfiguration(7, rng, 3.0, 0.1);
  sim::EngineOptions opts;
  opts.seed = 5;
  opts.maxEvents = 200000;
  opts.sched.kind = sched::SchedulerKind::FSync;
  sim::Engine eng(start, io::gridPattern(7), algo, opts);
  sim::Trace trace;
  trace.attach(eng);
  eng.run();
  const TestTempDir tmp;
  const std::string path = tmp.file("trace.csv");
  trace.writeCsv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "event,robot,x,y,phase");
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, trace.steps().size());
}

}  // namespace
}  // namespace apf
