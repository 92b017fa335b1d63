#pragma once

/// \file shrink.h
/// Delta-debugging minimizer for fuzzer counterexamples
/// (docs/RESILIENCE.md). A FuzzFailure is an exact replay coordinate (seed
/// + adversary aggression + per-run fault plan) but usually a needlessly
/// BIG one: the violation that needed 10 robots and 3 crash faults to be
/// *found* often reproduces with 4 robots and none. The shrinker greedily
/// removes robots, fault-plan entries, and adversary aggression while the
/// violation still reproduces, and the result serializes as a
/// self-contained `.repro.json` (schema "apf.repro.v1") that
/// `apf_sim --replay` re-executes exactly — the minimal artifact the
/// paper-style case analysis actually wants to look at.
///
/// Layering: the shrinker never names a concrete algorithm (core depends
/// on sim, not vice versa) — callers pass the `Algorithm&` and the repro
/// carries only its name string, which `apf_sim --replay` maps back to an
/// instance.

#include <cstdint>
#include <string>
#include <string_view>

#include "config/configuration.h"
#include "obs/json.h"
#include "sim/algorithm.h"
#include "sim/fuzzer.h"
#include "sim/metrics.h"
#include "sim/scenario.h"

namespace apf::sim {

/// A self-contained, exactly replayable counterexample: one run of a
/// points-start Scenario (sim/scenario.h) at `seed`, plus the violation it
/// is expected to show. `apf.repro.v1` encodes every field that can change
/// that run. The fields it leaves out keep the values set here: crashes
/// are explicit entries in `fault` (crashF stays 0), `fault.seed` is
/// authoritative (faultSeedSet), and n follows start.size().
struct ReproCase : Scenario {
  static constexpr const char* kSchema = "apf.repro.v1";

  ReproCase() {
    startKind = "points";
    maxEvents = 300000;
    faultSeedSet = true;
  }

  std::uint64_t seed = 1;
  /// Expected safety violation: "collision" or "sec_growth".
  std::string violationKind;
};

/// Outcome of re-executing a ReproCase under the fuzzer's safety observer.
struct ReplayResult {
  bool violated = false;
  std::string violationKind;  ///< first violation's kind (empty when clean)
  std::string violation;      ///< human-readable detail
  std::uint64_t violationEvent = 0;  ///< scheduler event of that violation
  RunResult run;

  /// True when the replay hit the violation the case promises.
  bool reproduces(const ReproCase& c) const {
    return violated &&
           (c.violationKind.empty() || violationKind == c.violationKind);
  }
};

/// Re-executes the case (same engine configuration and safety invariants
/// as sim/fuzzer.cpp) and reports the first violation, if any.
/// Deterministic given (case, algo).
ReplayResult replay(const ReproCase& c, const Algorithm& algo);

/// The scenario's run at `seed`, frozen into a ReproCase: its start points
/// and its per-run fault plan (crash victims drawn, stream seed resolved).
/// replay() of the result re-executes exactly that run.
ReproCase reproCaseFor(const Scenario& s, std::uint64_t seed);

/// Builds the (unshrunk) ReproCase for one fuzzer failure. `opts` must be
/// the FuzzOptions the campaign ran with; start/pattern likewise.
ReproCase reproFromFailure(const std::string& algoName,
                           const config::Configuration& start,
                           const config::Configuration& pattern,
                           const FuzzOptions& opts,
                           const FuzzFailure& failure);

/// Exact configuration (de)serialization shared by every wire schema that
/// embeds robot coordinates (apf.repro.v1, apf.shard.v1): a JSON
/// `[[x,y],...]` array whose doubles use the shortest form that parses
/// back bit-identical (obs::jsonNumber), so embedded configurations never
/// perturb a replay. pointsFromJson throws std::runtime_error (prefixed
/// with `what`) on anything that is not an array of [x,y] pairs.
std::string pointsJson(const config::Configuration& c);
config::Configuration pointsFromJson(const obs::JsonNode& node,
                                     const char* what);

/// Nested-JSON (de)serialization. Doubles use the shortest exact form and
/// 64-bit seeds survive via raw-token parsing, so
/// `reproFromJson(toJson(c))` round-trips every field bit for bit.
/// reproFromJson/loadRepro throw std::runtime_error on malformed input or
/// a schema mismatch; toJson throws std::logic_error on a case whose
/// crashF, faultSeedSet or startKind the schema could not carry.
std::string toJson(const ReproCase& c);
ReproCase reproFromJson(std::string_view text);
ReproCase loadRepro(const std::string& path);
/// Writes toJson() + newline, creating parent directories.
void saveRepro(const std::string& path, const ReproCase& c);

struct ShrinkOptions {
  /// Greedy fixpoint passes over all reduction kinds.
  int maxPasses = 8;
  /// Hard cap on candidate replays (each is one full engine run).
  int maxProbes = 2000;
  /// After minimizing, clamp maxEvents to just past the violation so the
  /// repro replays in milliseconds.
  bool shrinkEventBudget = true;
};

struct ShrinkResult {
  ReproCase minimized;
  /// False when the INPUT case did not reproduce — minimized is then the
  /// input, untouched.
  bool initialReproduced = false;
  int probes = 0;    ///< candidate replays executed
  int accepted = 0;  ///< candidates that kept the violation
  std::size_t robotsRemoved = 0;
  std::size_t crashesRemoved = 0;
  int knobsCleared = 0;  ///< fault probabilities zeroed / sigma halvings
};

/// Greedy delta-debugging: repeatedly tries removing one robot (with its
/// pattern point, remapping crash victims), removing one crash entry,
/// zeroing fault probabilities (halving sigma when zero fails), and
/// lowering earlyStopProb — accepting any candidate that still reproduces
/// the violation kind — until a pass makes no progress.
ShrinkResult shrink(const ReproCase& failing, const Algorithm& algo,
                    const ShrinkOptions& opts = {});

}  // namespace apf::sim
