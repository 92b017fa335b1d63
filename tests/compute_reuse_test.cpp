/// \file compute_reuse_test.cpp
/// The engine's reuse of randomness-free stays (sim/engine.h, StayRecord):
/// a Compute whose snapshot repeats, byte for byte, the one of the same
/// robot's last Compute, which stayed without drawing a bit, returns that
/// stay without calling the algorithm.
///
///  * A call-counting algorithm is called exactly once per distinct
///    (robot, snapshot bytes), and every other Compute is counted in
///    Metrics::computesReused.
///  * A Compute that draws a bit is never reused.
///  * Snapshots that differ only in the sign of a zero are different.
///  * A Look where the omission fault fired is recomputed.
///  * Payloads and Metrics of a corpus (ASYNC formation at n=8 and n=16,
///    psi_RSB from a symmetric n=16 start, FSYNC, SSYNC, omission + drop +
///    truncation, crash, noise) are pinned to the values the engine gave
///    before it reused anything.
///
/// Labelled `perf fault`: the TSan lane and the fault lane run it.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/form_pattern.h"
#include "core/phases.h"
#include "core/rsb.h"
#include "io/patterns.h"
#include "obs/manifest.h"
#include "sim/engine.h"
#include "sim/shard.h"

namespace apf::sim {
namespace {

using config::Configuration;
using geom::Vec2;

/// The snapshot's points as raw bytes, so -0.0 and +0.0 differ.
std::vector<std::uint64_t> bytesOf(const Snapshot& snap) {
  std::vector<std::uint64_t> out(2 * snap.robots.size());
  std::memcpy(out.data(), snap.robots.points().data(),
              out.size() * sizeof(std::uint64_t));
  return out;
}

std::uint64_t computesOf(const Metrics& m) {
  std::uint64_t total = 0;
  for (const auto& [tag, count] : m.phaseActivations) total += count;
  return total;
}

/// Robot 0 walks toward robot 1 until it is within 7 of it; every other
/// robot always stays. Counts its calls per (selfIndex, snapshot bytes);
/// with identity frames and no faults, selfIndex is the robot's index.
class ApproachAndCount : public Algorithm {
 public:
  Action compute(const Snapshot& snap, sched::RandomSource&) const override {
    ++calls[{snap.selfIndex, bytesOf(snap)}];
    if (snap.selfIndex != 0) return Action::stay(core::kTerminal);
    const Vec2 toOne = snap.robots[1];
    if (toOne.norm() <= 7.0) return Action::stay(core::kBaseline);
    geom::Path path{Vec2{}};
    path.lineTo(toOne.normalized());
    return Action{path, core::kBaseline};
  }
  std::string name() const override { return "approach-and-count"; }
  mutable std::map<std::pair<std::size_t, std::vector<std::uint64_t>>, int>
      calls;
};

TEST(ComputeReuseTest, OneCallPerDistinctRobotSnapshot) {
  const Configuration start({{0, 0}, {10, 0}, {0, 10}, {10, 10}});
  for (auto kind : {sched::SchedulerKind::Async, sched::SchedulerKind::SSync,
                    sched::SchedulerKind::FSync}) {
    ApproachAndCount algo;
    EngineOptions opts;
    opts.seed = 9;
    opts.sched.kind = kind;
    opts.randomizeFrames = false;
    opts.maxEvents = 20000;
    Engine eng(start, start, algo, opts);
    const RunResult res = eng.run();
    ASSERT_TRUE(res.terminated);
    std::uint64_t calls = 0;
    for (const auto& [key, count] : algo.calls) {
      EXPECT_EQ(count, 1) << "robot " << key.first
                          << " was called twice on one snapshot";
      calls += static_cast<std::uint64_t>(count);
    }
    EXPECT_EQ(calls + res.metrics.computesReused, computesOf(res.metrics));
    // FSYNC robot 0 moves every round until the last, so no snapshot
    // repeats there; under ASYNC and SSYNC robots Look again while it
    // stands still.
    if (kind != sched::SchedulerKind::FSync) {
      EXPECT_GT(res.metrics.computesReused, 0u) << sched::schedulerName(kind);
    }
  }
}

/// Stays, but draws one bit per Compute (election-like).
class CountingCoinFlipper : public Algorithm {
 public:
  Action compute(const Snapshot&, sched::RandomSource& rng) const override {
    ++calls;
    (void)rng.bit();
    return Action::stay(core::kRsbElection);
  }
  std::string name() const override { return "counting-coin-flipper"; }
  mutable std::uint64_t calls = 0;
};

TEST(ComputeReuseTest, BitDrawingComputesAreNeverReused) {
  // Nothing ever moves, so every snapshot repeats its robot's last one.
  const Configuration square({{1, 1}, {-1, 1}, {-1, -1}, {1, -1}});
  for (auto kind : {sched::SchedulerKind::Async, sched::SchedulerKind::SSync,
                    sched::SchedulerKind::FSync}) {
    CountingCoinFlipper algo;
    EngineOptions opts;
    opts.seed = 4;
    opts.sched.kind = kind;
    opts.maxEvents = 400;
    Engine eng(square, square, algo, opts);
    const RunResult res = eng.run();
    EXPECT_FALSE(res.terminated);
    EXPECT_GT(algo.calls, 50u);
    EXPECT_EQ(algo.calls, computesOf(res.metrics));
    EXPECT_EQ(res.metrics.randomBits, algo.calls);
    EXPECT_EQ(res.metrics.computesReused, 0u);
  }
}

TEST(ComputeReuseTest, SignOfZeroIsADifferentSnapshot) {
  // Equal as doubles, but an algorithm can tell them apart.
  ASSERT_EQ(0.0, -0.0);
  ASSERT_NE(std::atan2(0.0, -1.0), std::atan2(-0.0, -1.0));
  Snapshot plus;
  plus.robots = Configuration({{0, 0}, {-1, 0.0}});
  Snapshot minus;
  minus.robots = Configuration({{0, 0}, {-1, -0.0}});
  StayRecord rec;
  EXPECT_FALSE(rec.matches(plus));  // nothing remembered yet
  rec.remember(plus, core::kTerminal);
  EXPECT_TRUE(rec.matches(plus));
  EXPECT_EQ(rec.phaseTag(), core::kTerminal);
  EXPECT_FALSE(rec.matches(minus));
  Snapshot otherSelf = plus;
  otherSelf.selfIndex = 1;
  EXPECT_FALSE(rec.matches(otherSelf));
  rec.clear();
  EXPECT_FALSE(rec.matches(plus));
}

/// Always stays without drawing a bit; counts its calls.
class CountingStay : public Algorithm {
 public:
  Action compute(const Snapshot&, sched::RandomSource&) const override {
    ++calls;
    return Action::stay(core::kTerminal);
  }
  std::string name() const override { return "counting-stay"; }
  mutable std::uint64_t calls = 0;
};

TEST(ComputeReuseTest, OmittedLookIsRecomputed) {
  // Robot 1 Looks and Computes twice on an unchanged configuration. The
  // omission draws decide whether the second snapshot repeats the first:
  // fault seeds are scanned for both a seed where the first Look is whole
  // and the second lost a robot, and one where both are whole.
  const Configuration start({{0, 0}, {4, 0}, {0, 3}, {4, 3}});
  bool sawOmitted = false;
  bool sawWhole = false;
  for (std::uint64_t fseed = 1; fseed <= 200; ++fseed) {
    CountingStay algo;
    EngineOptions opts;
    opts.sched.kind = sched::SchedulerKind::Scripted;
    opts.maxEvents = 4;
    opts.fault.omitProb = 0.5;
    opts.fault.seed = fseed;
    using Op = sched::ScriptedEvent::Op;
    opts.script = {{1, Op::Look, 0}, {1, Op::Compute, 0},
                   {1, Op::Look, 0}, {1, Op::Compute, 0}};
    Engine eng(start, start, algo, opts);
    eng.step();
    const std::uint64_t firstLookFaults = eng.metrics().faultsInjected;
    eng.step();
    eng.step();
    const std::uint64_t secondLookFaults =
        eng.metrics().faultsInjected - firstLookFaults;
    eng.step();
    ASSERT_EQ(computesOf(eng.metrics()), 2u);
    if (firstLookFaults != 0) continue;
    if (secondLookFaults != 0) {
      sawOmitted = true;
      EXPECT_EQ(algo.calls, 2u) << "fault seed " << fseed;
      EXPECT_EQ(eng.metrics().computesReused, 0u) << "fault seed " << fseed;
    } else {
      sawWhole = true;
      EXPECT_EQ(algo.calls, 1u) << "fault seed " << fseed;
      EXPECT_EQ(eng.metrics().computesReused, 1u) << "fault seed " << fseed;
    }
  }
  EXPECT_TRUE(sawOmitted);
  EXPECT_TRUE(sawWhole);
}

// ------------------------------------------------------------- corpus --

/// One corpus entry: a one-run campaign spec and the algorithm it names.
struct Case {
  const char* name;
  ShardSpec spec;
  const Algorithm* algo;
};

const core::FormPatternAlgorithm kForm;
const core::RsbOnlyAlgorithm kRsb;

ShardSpec formSpec(std::size_t n, std::uint64_t seed) {
  ShardSpec s;
  s.algo = "form";
  s.n = n;
  s.patternLabel = "random";
  s.pattern = io::randomPatternByName(n, seed);
  s.startKind = "random";
  s.baseSeed = seed;
  s.runs = 1;
  s.maxEvents = 200000;
  return s;
}

std::vector<Case> corpus() {
  std::vector<Case> cases;
  cases.push_back({"form_n8_async", formSpec(8, 101), &kForm});
  cases.push_back({"form_n16_async", formSpec(16, 102), &kForm});
  ShardSpec rsb = formSpec(16, 103);
  rsb.algo = "rsb";
  rsb.startKind = "symmetric";
  cases.push_back({"rsb_n16_symmetric", rsb, &kRsb});
  ShardSpec fsync = formSpec(8, 104);
  fsync.sched = sched::SchedulerKind::FSync;
  cases.push_back({"form_n8_fsync", fsync, &kForm});
  ShardSpec ssync = formSpec(8, 105);
  ssync.sched = sched::SchedulerKind::SSync;
  cases.push_back({"form_n8_ssync", ssync, &kForm});
  ShardSpec lossy = formSpec(8, 106);
  lossy.maxEvents = 20000;
  lossy.fault.omitProb = 0.01;
  lossy.fault.dropProb = 0.01;
  lossy.fault.truncProb = 0.02;
  cases.push_back({"form_n8_omit_drop_trunc", lossy, &kForm});
  ShardSpec crash = formSpec(8, 107);
  crash.maxEvents = 20000;
  crash.crashF = 1;
  crash.crashHorizon = 500;
  cases.push_back({"form_n8_crash", crash, &kForm});
  ShardSpec noise = formSpec(8, 108);
  noise.maxEvents = 5000;
  noise.fault.noiseSigma = 0.01;
  cases.push_back({"form_n8_noise", noise, &kForm});
  return cases;
}

/// The engine run behind runScenarioPayload(spec, algo, 0, {}), rebuilt
/// from the same recipe (sim/scenario.h) so its full Metrics can be read.
RunResult runDirect(const Case& c) {
  const std::uint64_t seed = c.spec.baseSeed;
  Engine eng(startFor(c.spec, seed), c.spec.pattern, *c.algo,
             engineOptionsFor(c.spec, seed));
  return eng.run();
}

/// Every deterministic Metrics field except wall time, the geometry-cache
/// counters and computesReused, as one line.
std::string fingerprint(const RunResult& res) {
  const Metrics& m = res.metrics;
  std::string out;
  char buf[256];
  std::snprintf(
      buf, sizeof buf,
      "outcome=%s cycles=%llu events=%llu bits=%llu dist=%.17g "
      "elections=%llu faults=%llu crashed=%llu stale=%llu/%llu/%llu phases=",
      outcomeName(res.outcome), static_cast<unsigned long long>(m.cycles),
      static_cast<unsigned long long>(m.events),
      static_cast<unsigned long long>(m.randomBits), m.distance,
      static_cast<unsigned long long>(m.electionRounds),
      static_cast<unsigned long long>(m.faultsInjected),
      static_cast<unsigned long long>(m.crashed),
      static_cast<unsigned long long>(m.staleness.count()),
      static_cast<unsigned long long>(m.staleness.sum()),
      static_cast<unsigned long long>(m.staleness.max()));
  out = buf;
  for (const auto& [tag, count] : m.phaseActivations) {
    std::snprintf(buf, sizeof buf, "%d:%llu,", tag,
                  static_cast<unsigned long long>(count));
    out += buf;
  }
  return out;
}

/// What the engine produced for each corpus case before it reused any
/// Compute: the runScenarioPayload bytes and the Metrics fingerprint.
struct Pinned {
  const char* payload;
  const char* metrics;
};

const std::map<std::string, Pinned>& pinned() {
  static const std::map<std::string, Pinned> table = {
      {"form_n8_async",
       {R"({"seed":101,"outcome":"success","success":true,"terminated":true,)"
        R"("cycles":284,"events":671,"bits":0,"distance":27.17346288011143})",
        "outcome=success cycles=284 events=671 bits=0 "
        "dist=27.17346288011143 elections=0 faults=0 crashed=0 "
        "stale=284/258/19 phases=1:30,2:22,5:25,7:87,10:22,11:74,13:24,"}},
      {"form_n16_async",
       {R"({"seed":102,"outcome":"success","success":true,"terminated":true,)"
        R"("cycles":1389,"events":3114,"bits":0,)"
        R"("distance":281.7552822792197})",
        "outcome=success cycles=1389 events=3114 bits=0 "
        "dist=281.75528227921973 elections=0 faults=0 crashed=0 "
        "stale=1389/1933/51 "
        "phases=1:26,2:26,5:13,7:119,10:303,11:721,12:14,13:167,"}},
      {"rsb_n16_symmetric",
       {R"({"seed":103,"outcome":"stalled","success":false,)"
        R"("terminated":true,"cycles":195,"events":471,"bits":9,)"
        R"("distance":6.568744936922282})",
        "outcome=stalled cycles=195 events=471 bits=9 "
        "dist=6.5687449369222817 elections=9 faults=0 crashed=0 "
        "stale=195/365/34 phases=1:60,3:14,4:66,5:55,"}},
      {"form_n8_fsync",
       {R"({"seed":104,"outcome":"success","success":true,"terminated":true,)"
        R"("cycles":256,"events":256,"bits":0,"distance":96.2940243244737})",
        "outcome=success cycles=256 events=256 bits=0 "
        "dist=96.294024324473696 elections=0 faults=0 crashed=0 "
        "stale=256/0/0 phases=1:8,2:8,5:16,7:24,9:64,10:80,12:48,13:8,"}},
      {"form_n8_ssync",
       {R"({"seed":105,"outcome":"success","success":true,"terminated":true,)"
        R"("cycles":736,"events":736,"bits":0,"distance":67.17493562762992})",
        "outcome=success cycles=736 events=736 bits=0 "
        "dist=67.174935627629921 elections=0 faults=0 crashed=0 "
        "stale=736/0/0 phases=1:14,2:31,5:18,7:89,9:248,10:17,11:216,13:103,"}},
      {"form_n8_omit_drop_trunc",
       {R"({"seed":106,"outcome":"success","success":true,"terminated":true,)"
        R"("cycles":873,"events":2048,"bits":0,)"
        R"("distance":141.01394222088513})",
        "outcome=success cycles=873 events=2048 bits=0 "
        "dist=141.01394222088513 elections=0 faults=55 crashed=0 "
        "stale=873/870/20 "
        "phases=0:42,1:84,2:105,5:79,7:147,10:11,11:254,13:151,"}},
      {"form_n8_crash",
       {R"({"seed":107,"outcome":"crashed_short","success":false,)"
        R"("terminated":true,"cycles":218,"events":488,"bits":0,)"
        R"("distance":6.080625740302999})",
        "outcome=crashed_short cycles=218 events=488 bits=0 "
        "dist=6.0806257403029988 elections=0 faults=0 crashed=1 "
        "stale=218/136/6 phases=5:64,7:91,11:63,"}},
      {"form_n8_noise",
       {R"({"seed":108,"outcome":"stalled","success":false,)"
        R"("terminated":false,"cycles":2338,"events":5000,"bits":0,)"
        R"("distance":103.6444207656419})",
        "outcome=stalled cycles=2338 events=5000 bits=0 "
        "dist=103.6444207656419 elections=0 faults=2343 crashed=0 "
        "stale=2339/1082/11 phases=5:47,7:666,10:734,11:892,"}},
  };
  return table;
}

TEST(ComputeReuseTest, CorpusPayloadsAndMetricsArePinned) {
  const std::vector<Case> cases = corpus();
  ASSERT_EQ(cases.size(), pinned().size());
  for (const Case& c : cases) {
    ASSERT_EQ(validateShardSpec(c.spec), "") << c.name;
    const Pinned& want = pinned().at(c.name);
    EXPECT_EQ(runScenarioPayload(c.spec, *c.algo, 0, Attempt{}),
              want.payload)
        << c.name;
    EXPECT_EQ(fingerprint(runDirect(c)), want.metrics) << c.name;
  }
}

TEST(ComputeReuseTest, ReusedCountIsDeterministicAndInTheManifest) {
  // The counter is exact: a repeated run reports it unchanged, and the
  // manifest carries it as result.compute_reused.
  const std::vector<Case> cases = corpus();
  for (const Case& c : cases) {
    const RunResult a = runDirect(c);
    const RunResult b = runDirect(c);
    EXPECT_EQ(a.metrics.computesReused, b.metrics.computesReused) << c.name;
    EXPECT_LT(a.metrics.computesReused, computesOf(a.metrics)) << c.name;
    obs::Manifest m;
    appendResult(m, a);
    const std::string* reused = m.findEncoded("result.compute_reused");
    ASSERT_NE(reused, nullptr) << c.name;
    EXPECT_EQ(*reused, std::to_string(a.metrics.computesReused)) << c.name;
  }
  // A formation run ends with every robot re-Looking at the formed
  // pattern, so some Computes repeat a stay.
  EXPECT_GT(runDirect(cases.front()).metrics.computesReused, 0u);
}

}  // namespace
}  // namespace apf::sim
