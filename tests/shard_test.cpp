/// \file shard_test.cpp
/// The campaign spec and the journaled executor (src/sim/shard.h):
///
///  * shardConfigKey's bytes are pinned, so a journal written by an
///    earlier build still resumes; the fixed start is on the wire only
///    when it is authoritative; validation catches inconsistent specs,
///    start recipes that cannot produce n robots, and run fields the wire
///    cannot carry.
///  * A repro of a campaign run replays that run (one recipe).
///  * A run's payload depends only on (spec, global index, attempt salt).
///  * runShard over slices of [0, runs) on one journal (an uneven 3-way
///    split and per-run slices [i, i+1), serially and on a thread pool)
///    writes the same journal bytes and delivers the same payloads as one
///    serial [0, runs) call, on scripted (fixed points), fuzz (random
///    starts) and fault-plan campaigns.
///  * A campaign killed mid-append (torn journal tail) resumes to the
///    uninterrupted payloads and journal bytes, serially and on a thread
///    pool.
///
/// tools/kill_resume_check.sh repeats the kill-and-resume drill on the
/// apf_sim binary with real SIGKILLs.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "config/generator.h"
#include "core/form_pattern.h"
#include "io/patterns.h"
#include "sim/shard.h"
#include "sim/shrink.h"
#include "sim/supervisor.h"
#include "tmpdir.h"

namespace apf::sim {
namespace {

std::string readAll(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

/// "scripted" workload: every run starts from the same fixed points.
ShardSpec scriptedSpec() {
  ShardSpec s;
  s.algo = "form";
  s.n = 6;
  s.patternLabel = "star";
  s.pattern = io::starPattern(6);
  s.startKind = "points";
  config::Rng rng(77);
  s.start = config::randomConfiguration(6, rng, 5.0, 0.1);
  s.baseSeed = 11;
  s.runs = 8;
  s.maxEvents = 1500;
  return s;
}

/// "fuzz" workload: a fresh random start per run, derived from the
/// effective seed.
ShardSpec fuzzSpec() {
  ShardSpec s;
  s.algo = "form";
  s.n = 6;
  s.patternLabel = "star";
  s.pattern = io::starPattern(6);
  s.startKind = "random";
  s.baseSeed = 23;
  s.runs = 8;
  s.maxEvents = 1500;
  return s;
}

/// "fault-plan" workload: crash-stop victims re-drawn per run plus sensor
/// noise and truncation.
ShardSpec faultSpec() {
  ShardSpec s = fuzzSpec();
  s.baseSeed = 31;
  s.crashF = 1;
  s.crashHorizon = 500;
  s.fault.noiseSigma = 0.02;
  s.fault.truncProb = 0.1;
  return s;
}

// ------------------------------------------------------------------ wire --

TEST(ShardSpecTest, ConfigKeyBytesArePinned) {
  // The config key is compared byte for byte against every journal's
  // header, so any change to these bytes strands existing journals. The
  // second spec covers a points start, SSync, crash_f, a pinned fault seed
  // and a double (0.1 + 0.2) that needs all 17 digits to round-trip.
  EXPECT_EQ(shardConfigKey(faultSpec()),
      R"({"shard":"apf.shard.v1","algo":"form","n":6,)"
      R"("pattern_label":"star","pattern":[[1,0],[0.22500000000000006,)"
      R"(0.3897114317029974],[-0.4999999999999998,0.8660254037844387],)"
      R"([-0.45,5.5109105961630896e-17],[-0.5000000000000004,)"
      R"(-0.8660254037844384],[0.22500000000000006,-0.3897114317029974]],)"
      R"("start_kind":"random","sched":"ASYNC","base_seed":31,"runs":8,)"
      R"("max_events":1500,"delta":0.05,"multiplicity":false,)"
      R"("chirality":false,"crash_f":1,"crash_horizon":500,)"
      R"("fault":{"crashes":[],"noise_sigma":0.02,"omit_prob":0,)"
      R"("mult_flip_prob":0,"drop_prob":0,"trunc_prob":0.1,"seed":0},)"
      R"("fault_seed_set":false,"watchdog_events":0,"watchdog_ms":0,)"
      R"("retries":2})");

  ShardSpec s = scriptedSpec();
  s.sched = sched::SchedulerKind::SSync;
  s.crashF = 1;
  s.faultSeedSet = true;
  s.fault.seed = 99;
  s.delta = 0.1 + 0.2;
  EXPECT_EQ(shardConfigKey(s),
      R"({"shard":"apf.shard.v1","algo":"form","n":6,)"
      R"("pattern_label":"star","pattern":[[1,0],[0.22500000000000006,)"
      R"(0.3897114317029974],[-0.4999999999999998,0.8660254037844387],)"
      R"([-0.45,5.5109105961630896e-17],[-0.5000000000000004,)"
      R"(-0.8660254037844384],[0.22500000000000006,-0.3897114317029974]],)"
      R"("start_kind":"points","start":[[0.31474645183543104,)"
      R"(3.4988029437565773],[1.7211820626969914,4.6826818374393175],)"
      R"([-2.9072057282009354,-1.9948963619056101],[-2.7034427326397648,)"
      R"(0.591608070277164],[-0.5901968977815815,-2.1011370108336376],)"
      R"([0.45721588994785106,-2.5683305138703485]],"sched":"SSYNC",)"
      R"("base_seed":11,"runs":8,"max_events":1500,)"
      R"("delta":0.30000000000000004,"multiplicity":false,)"
      R"("chirality":false,"crash_f":1,"crash_horizon":2000,)"
      R"("fault":{"crashes":[],"noise_sigma":0,"omit_prob":0,)"
      R"("mult_flip_prob":0,"drop_prob":0,"trunc_prob":0,"seed":99},)"
      R"("fault_seed_set":true,"watchdog_events":0,"watchdog_ms":0,)"
      R"("retries":2})");
}

TEST(ShardSpecTest, StartPointsOnlyOnWireWhenAuthoritative) {
  ShardSpec s = fuzzSpec();
  config::Rng rng(3);
  s.start = config::randomConfiguration(6, rng, 5.0, 0.1);  // stale scratch
  // startKind is "random": the stale start must NOT appear on the wire,
  // or two behaviorally identical specs would get different config keys.
  EXPECT_EQ(toJson(s).find("\"start\""), std::string::npos);
  EXPECT_NE(toJson(scriptedSpec()).find("\"start\""), std::string::npos);
}

TEST(ShardSpecTest, ValidateCatchesInconsistentSpecs) {
  EXPECT_EQ(validateShardSpec(scriptedSpec()), "");
  EXPECT_EQ(validateShardSpec(faultSpec()), "");
  ShardSpec bad = scriptedSpec();
  bad.n = 7;  // pattern still has 6 points
  EXPECT_NE(validateShardSpec(bad), "");
  bad = scriptedSpec();
  bad.startKind = "weird";
  EXPECT_NE(validateShardSpec(bad), "");
  bad = fuzzSpec();
  bad.crashF = 6;  // no live robot left
  EXPECT_NE(validateShardSpec(bad), "");
  bad = fuzzSpec();
  bad.runs = 0;
  EXPECT_NE(validateShardSpec(bad), "");
}

TEST(ShardSpecTest, ValidateRefusesStartsThatCannotProduceNRobots) {
  // A symmetric start is two rings of n/2 robots, so it produces exactly n
  // robots only for an even n >= 4.
  ShardSpec s = fuzzSpec();
  s.startKind = "symmetric";
  EXPECT_EQ(validateShardSpec(s), "");
  EXPECT_EQ(startFor(s, 1).size(), s.n);
  s.n = 7;
  s.pattern = io::starPattern(7);
  EXPECT_NE(validateShardSpec(s), "");
  s.n = 2;
  s.pattern = io::polygonPattern(2);
  EXPECT_NE(validateShardSpec(s), "");
  ShardSpec p = scriptedSpec();
  p.start = p.start.without(0);  // 5 fixed points for n = 6
  EXPECT_NE(validateShardSpec(p), "");
}

TEST(ShardSpecTest, ValidateRefusesRunFieldsTheWireCannotCarry) {
  ShardSpec s = fuzzSpec();
  s.earlyStopProb = 0.9;  // apf.shard.v1 has no early_stop_prob
  EXPECT_NE(validateShardSpec(s), "");
  s = faultSpec();  // crash_f = 1 draws the victims per run...
  s.fault.crashes = {{0, 10}};  // ...so explicit entries would be lost
  EXPECT_NE(validateShardSpec(s), "");
}

// ---------------------------------------------------------- determinism --

TEST(ScenarioTest, ReproCaseForReplaysTheCampaignRun) {
  // One recipe: the repro of run 2 (its crash victim drawn, its fault seed
  // resolved), through the apf.repro.v1 codec, replays the run whose
  // payload runScenarioPayload reports.
  const ShardSpec spec = faultSpec();
  core::FormPatternAlgorithm algo;
  const ReproCase c = reproCaseFor(spec, spec.baseSeed + 2);
  EXPECT_EQ(c.fault.crashes.size(), 1u);
  EXPECT_EQ(c.fault.seed, spec.baseSeed + 2);
  const RunResult res = replay(reproFromJson(toJson(c)), algo).run;
  const std::string payload = runScenarioPayload(spec, algo, 2, Attempt{});
  EXPECT_NE(payload.find("\"cycles\":" + std::to_string(res.metrics.cycles) +
                         ",\"events\":" + std::to_string(res.metrics.events) +
                         ","),
            std::string::npos)
      << payload;
}

TEST(ShardPayloadTest, PayloadDependsOnlyOnSpecIndexAndSalt) {
  const ShardSpec spec = faultSpec();
  core::FormPatternAlgorithm algo;
  Attempt att;
  const std::string p3 = runScenarioPayload(spec, algo, 3, att);
  EXPECT_EQ(runScenarioPayload(spec, algo, 3, att), p3);
  EXPECT_NE(runScenarioPayload(spec, algo, 4, att), p3);
  Attempt salted;
  salted.seedSalt = retrySeedSalt(2);
  EXPECT_NE(runScenarioPayload(spec, algo, 3, salted), p3);
}

class ShardMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardMergeTest, MergedJournalIsByteIdenticalToSingleProcess) {
  // Journals and payloads are keyed by GLOBAL run index, so running
  // [0, runs) as slices on one journal must write and deliver exactly what
  // one serial whole-campaign call does. Two partitions of the 8 runs: an
  // uneven 3-way split and per-run slices [i, i+1), serially and on a
  // 2-thread pool inside each slice; scripted, fuzz and fault-plan specs.
  const int jobs = GetParam();
  const ShardSpec specs[] = {scriptedSpec(), fuzzSpec(), faultSpec()};
  const char* names[] = {"scripted", "fuzz", "fault"};
  core::FormPatternAlgorithm algo;
  const TestTempDir tmp;
  for (int k = 0; k < 3; ++k) {
    const ShardSpec& spec = specs[k];
    const std::string key = shardConfigKey(spec);

    const std::string wholePath = tmp.file(std::string(names[k]) + ".whole");
    std::vector<std::string> whole;
    {
      CampaignJournal j(wholePath, key, /*resume=*/false);
      const SupervisorReport rep = runShard(spec, algo, 0, spec.runs, &j,
                                            nullptr, 1, nullptr, &whole);
      EXPECT_EQ(rep.completed, spec.runs);
    }

    std::vector<std::uint64_t> perRun;
    for (std::uint64_t i = 0; i <= spec.runs; ++i) perRun.push_back(i);
    const std::vector<std::vector<std::uint64_t>> partitions = {
        {0, 3, 6, spec.runs}, perRun};
    for (std::size_t p = 0; p < partitions.size(); ++p) {
      const std::vector<std::uint64_t>& cuts = partitions[p];
      const std::string tag =
          std::string(names[k]) + " partition " + std::to_string(p);
      const std::string slicedPath =
          tmp.file(std::string(names[k]) + ".sliced" + std::to_string(p));
      std::vector<std::string> sliced;
      {
        CampaignJournal j(slicedPath, key, /*resume=*/false);
        for (std::size_t c = 0; c + 1 < cuts.size(); ++c) {
          const SupervisorReport rep =
              runShard(spec, algo, cuts[c], cuts[c + 1], &j, nullptr, jobs,
                       nullptr, &sliced);
          EXPECT_EQ(rep.completed, cuts[c + 1] - cuts[c])
              << tag << " slice " << c;
        }
      }
      EXPECT_EQ(sliced, whole) << tag;
      EXPECT_EQ(readAll(slicedPath), readAll(wholePath))
          << tag << " merged journal differs from single-process";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SerialAndPooled, ShardMergeTest,
                         ::testing::Values(1, 2));

TEST(ShardResumeTest, ResumedJournalConvergesByteIdentical) {
  const ShardSpec spec = fuzzSpec();
  core::FormPatternAlgorithm algo;
  const std::string key = shardConfigKey(spec);
  const TestTempDir tmp;

  const std::string refPath = tmp.file("resume_ref.journal");
  {
    CampaignJournal ref(refPath, key, /*resume=*/false);
    runShard(spec, algo, 0, spec.runs, &ref, nullptr, 1);
  }

  const std::string path = tmp.file("resume_partial.journal");
  {
    // "Crash" after three runs: only [0, 3) ever journals.
    CampaignJournal j(path, key, /*resume=*/false);
    runShard(spec, algo, 0, 3, &j, nullptr, 1);
  }
  {
    CampaignJournal j(path, key, /*resume=*/true);
    const SupervisorReport rep =
        runShard(spec, algo, 0, spec.runs, &j, nullptr, 1);
    EXPECT_EQ(rep.replayed, 3u);
    EXPECT_EQ(rep.completed, spec.runs - 3);
  }
  EXPECT_EQ(readAll(path), readAll(refPath));
}

TEST(ShardResumeTest, TornTailResumeConvergesBitIdentical) {
  // A SIGKILL mid-append leaves the journal with complete entries and one
  // torn, unterminated line. Resume must drop the torn line, replay the
  // complete entries without re-running them, and converge to the
  // uninterrupted payloads and journal bytes at any thread count.
  ShardSpec spec = faultSpec();
  spec.runs = 16;
  core::FormPatternAlgorithm algo;
  const std::string key = shardConfigKey(spec);
  const TestTempDir tmp;

  const std::string fullPath = tmp.file("full.journal");
  std::vector<std::string> reference;
  {
    CampaignJournal j(fullPath, key, /*resume=*/false);
    runShard(spec, algo, 0, spec.runs, &j, nullptr, 1, nullptr, &reference);
  }
  const std::string fullBytes = readAll(fullPath);

  for (int jobs : {1, 4}) {
    // Keep the header and 5 entries, then tear the 6th mid-write.
    std::istringstream full(fullBytes);
    std::string line, partial;
    for (int keep = 0; keep < 6 && std::getline(full, line); ++keep) {
      partial += line + "\n";
    }
    partial += "{\"i\":5,\"payl";
    const std::string killed = tmp.file("killed" + std::to_string(jobs));
    {
      std::ofstream os(killed, std::ios::binary);
      os << partial;
    }

    std::vector<std::string> resumed;
    SupervisorReport report;
    {
      CampaignJournal j(killed, key, /*resume=*/true);
      EXPECT_TRUE(j.recoveredTornLine());
      EXPECT_EQ(j.completedCount(), 5u);
      report = runShard(spec, algo, 0, spec.runs, &j, nullptr, jobs, nullptr,
                        &resumed);
    }
    EXPECT_EQ(resumed, reference) << "jobs=" << jobs;
    EXPECT_EQ(readAll(killed), fullBytes) << "jobs=" << jobs;
    EXPECT_EQ(report.replayed, 5u);
    EXPECT_EQ(report.completed, spec.runs - 5u);
  }
}

}  // namespace
}  // namespace apf::sim
