#pragma once

/// \file scenario.h
/// The one run recipe (docs/API.md). A Scenario names everything that
/// defines a seeded run except the seed: algorithm, robots, pattern, start
/// rule, scheduler, caps and faults. startFor and engineOptionsFor turn
/// (scenario, seed) into the run's start configuration and EngineOptions.
/// apf_sim, apf_estimate, the shard executor (sim/shard.h) and the
/// shrinker (sim/shrink.h) build every run from these two, so "scenario +
/// seed" names the same run in every tool.
///
/// The wire schemas extend it: ShardSpec (`apf.shard.v1`) adds a seed
/// range and supervisor knobs, ReproCase (`apf.repro.v1`) a seed and an
/// expected violation. A field may change a run only if every schema that
/// claims to describe the run encodes it; validateShardSpec refuses the
/// one field `apf.shard.v1` lacks (earlyStopProb) unless it is at its
/// default.

#include <cstdint>
#include <string>

#include "config/configuration.h"
#include "fault/fault.h"
#include "sched/scheduler.h"
#include "sim/engine.h"

namespace apf::sim {

struct Scenario {
  std::string algo = "form";     ///< algorithm name (apf_sim --algo spelling)
  std::size_t n = 8;             ///< robots per run
  /// Human label for the pattern ("star", a file path, ...). The points
  /// below are authoritative; the label is bookkeeping for reports.
  std::string patternLabel = "star";
  config::Configuration pattern; ///< resolved target points
  /// "random" | "symmetric": drawn per run from the run's seed.
  /// "points": the fixed `start` configuration below starts every run.
  std::string startKind = "random";
  config::Configuration start;   ///< only meaningful for startKind "points"
  sched::SchedulerKind sched = sched::SchedulerKind::Async;
  std::uint64_t maxEvents = 1000000;
  double delta = 0.05;
  double earlyStopProb = sched::SchedulerOptions().earlyStopProb;
  bool multiplicityDetection = false;
  bool commonChirality = false;
  /// Crash-stop faults: f victims drawn per run inside `crashHorizon`
  /// events (fault::planWithRandomCrashes), matching apf_sim --crash.
  int crashF = 0;
  std::uint64_t crashHorizon = 2000;
  /// Base fault plan: the sensor/compute knobs, explicit crash entries and
  /// the fault-stream seed. Each run's stream is seeded from the run's seed
  /// unless `faultSeedSet` pins `fault.seed` for every run.
  fault::FaultPlan fault;
  bool faultSeedSet = false;
};

/// Empty string when every seed of the scenario names a runnable run;
/// otherwise a human-readable reason (pattern/robot count mismatch, a
/// start recipe that cannot produce n robots, crashF >= n, invalid plan).
std::string validate(const Scenario& s);

/// The start configuration of the run with this seed: the fixed points,
/// or a symmetric (ρ = n/2, two rings) or random start drawn from
/// Rng(seed + 7). Requires validate(s) to be empty.
config::Configuration startFor(const Scenario& s, std::uint64_t seed);

/// The EngineOptions of the run with this seed: scheduler fields, caps, and
/// the per-run fault plan (the base plan, its stream seeded from `seed`
/// unless pinned, with crashF victims drawn from that stream's seed).
/// Telemetry, timing and watchdog fields stay at their defaults.
EngineOptions engineOptionsFor(const Scenario& s, std::uint64_t seed);

}  // namespace apf::sim
