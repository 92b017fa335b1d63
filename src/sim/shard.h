#pragma once

/// \file shard.h
/// A campaign as one value, and the journaled, supervised executor that
/// runs any slice of it (docs/API.md, docs/RESILIENCE.md).
///
/// ShardSpec (`apf.shard.v1`) describes a whole Monte Carlo campaign: the
/// scenario (algorithm name, robot count, resolved pattern points, start
/// recipe, scheduler), seeds, the base fault plan (fault::toJson), and the
/// supervisor knobs (watchdog budgets, retry policy). Its canonical JSON is
/// the journal config key, compared byte for byte and never decoded, so
/// resuming a journal of a DIFFERENT campaign refuses loudly instead of
/// merging garbage. tests/shard_test.cpp pins the key's bytes, so a journal
/// written by an earlier build still resumes.
///
/// Determinism contract (tests/shard_test.cpp, tools/kill_resume_check.sh):
///  * runShard(spec, algo, 0, spec.runs) is the whole campaign; apf_sim's
///    --campaign mode is implemented on it.
///  * A run's payload depends only on (spec, global run index, attempt
///    salt), never on the slice, thread or call that executed it. Journals
///    record GLOBAL run indices, so running [0, runs) in any sequence of
///    slices on one journal writes the same bytes as one call.
///  * The journal is appended before a payload is delivered, and a resumed
///    journal replays its payloads verbatim, so a campaign killed and
///    resumed converges byte-identical to an uninterrupted one at any
///    thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "config/configuration.h"
#include "fault/fault.h"
#include "sched/scheduler.h"
#include "sim/algorithm.h"
#include "sim/supervisor.h"

namespace apf::sim {

/// Versioned description of a whole campaign (`apf.shard.v1`). Value
/// semantics; toJson encodes every field (doubles via obs::jsonNumber), and
/// those bytes are the journal config key.
struct ShardSpec {
  static constexpr const char* kSchema = "apf.shard.v1";

  std::string algo = "form";     ///< algorithm name (apf_sim --algo spelling)
  std::size_t n = 8;             ///< robots per run
  /// Human label for the pattern ("star", a file path, ...). The points
  /// below are authoritative; the label is bookkeeping for reports.
  std::string patternLabel = "star";
  config::Configuration pattern; ///< resolved target points (wire-embedded)
  /// "random" | "symmetric": regenerated per run from the effective seed.
  /// "points": the fixed `start` configuration below is used for every run.
  std::string startKind = "random";
  config::Configuration start;   ///< only meaningful for startKind "points"
  sched::SchedulerKind sched = sched::SchedulerKind::Async;
  std::uint64_t baseSeed = 1;    ///< run i executes with seed baseSeed + i
  std::uint64_t runs = 1;
  std::uint64_t maxEvents = 1000000;
  double delta = 0.05;
  bool multiplicity = false;
  bool commonChirality = false;
  /// Crash-stop faults: f victims re-drawn per run inside `crashHorizon`
  /// events (fault::planWithRandomCrashes), matching apf_sim --crash.
  int crashF = 0;
  std::uint64_t crashHorizon = 2000;
  /// Base fault plan: the sensor/compute knobs plus the fault-stream seed.
  /// Per-run plans re-draw crash victims from the effective per-run seed
  /// unless `faultSeedSet` pins `fault.seed` for every run.
  fault::FaultPlan fault;
  bool faultSeedSet = false;
  // Supervisor knobs, applied to every run.
  std::uint64_t watchdogEvents = 0;
  std::uint64_t watchdogMs = 0;
  int retries = 2;
};

/// Canonical single-line JSON encoding (schema field first).
std::string toJson(const ShardSpec& spec);

/// The journal config key: the spec's canonical JSON itself. Any spec
/// difference, including a future schema bump, makes CampaignJournal
/// refuse to resume the journal (its config-mismatch check).
std::string shardConfigKey(const ShardSpec& spec);

/// Empty string when the spec is executable; otherwise a human-readable
/// reason (pattern/robot count mismatch, crashF >= n, invalid plan, ...).
std::string validateShardSpec(const ShardSpec& spec);

/// The per-run supervisor policy encoded in the spec.
SupervisorOptions shardSupervisorOptions(const ShardSpec& spec,
                                         obs::Recorder* recorder = nullptr);

/// Executes ONE run of the campaign: global index `runIndex`, retry salt
/// folded in via `att`. Deterministic given (spec, runIndex, att.seedSalt)
/// — the payload carries no wall-clock or process-identity fields, which
/// is what makes campaign output byte-comparable. This is the exact worker
/// apf_sim's --campaign mode always ran; see the .cpp for the
/// field-by-field contract.
std::string runScenarioPayload(const ShardSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att);

/// Runs the spec's global index range [lo, hi) under the supervisor,
/// journaling (when `journal` is non-null) and reporting with GLOBAL run
/// indices. Already-journaled runs replay without re-execution. When
/// `payloads` is non-null it must have spec.runs slots; completed and
/// replayed payloads land at their global index. jobs follows
/// campaignJobs() resolution. The whole campaign is runShard(spec, algo,
/// 0, spec.runs, ...).
SupervisorReport runShard(const ShardSpec& spec, const Algorithm& algo,
                          std::uint64_t lo, std::uint64_t hi,
                          CampaignJournal* journal, obs::Recorder* recorder,
                          int jobs = 0, CampaignStats* stats = nullptr,
                          std::vector<std::string>* payloads = nullptr);

}  // namespace apf::sim
