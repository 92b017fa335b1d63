#pragma once

/// \file shard.h
/// A campaign as one value, and the journaled, supervised executor that
/// runs any slice of it (docs/API.md, docs/RESILIENCE.md).
///
/// ShardSpec (`apf.shard.v1`) describes a whole Monte Carlo campaign: a
/// Scenario (sim/scenario.h: algorithm name, robot count, resolved pattern
/// points, start recipe, scheduler, caps, base fault plan), a seed range,
/// and the supervisor knobs (watchdog budgets, retry policy). Its
/// canonical JSON is the journal config key, compared byte for byte and
/// never decoded, so resuming a journal of a DIFFERENT campaign refuses
/// loudly instead of merging garbage. tests/shard_test.cpp pins the key's
/// bytes, so a journal written by an earlier build still resumes.
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

#include "sim/algorithm.h"
#include "sim/scenario.h"
#include "sim/supervisor.h"

namespace apf::sim {

/// Versioned description of a whole campaign (`apf.shard.v1`): a Scenario
/// run at seeds baseSeed .. baseSeed + runs - 1 under one supervisor
/// policy. Value semantics; toJson encodes every field that can change a
/// run (doubles via obs::jsonNumber), and those bytes are the journal
/// config key.
struct ShardSpec : Scenario {
  static constexpr const char* kSchema = "apf.shard.v1";

  std::uint64_t baseSeed = 1;    ///< run i executes with seed baseSeed + i
  std::uint64_t runs = 1;
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
/// reason: validate(Scenario)'s, no runs, negative retries, or an
/// earlyStopProb other than the default (`apf.shard.v1` cannot encode it).
std::string validateShardSpec(const ShardSpec& spec);

/// The per-run supervisor policy encoded in the spec.
SupervisorOptions shardSupervisorOptions(const ShardSpec& spec,
                                         obs::Recorder* recorder = nullptr);

/// Executes ONE run of the campaign: global index `runIndex`, retry salt
/// folded in via `att`. Deterministic given (spec, runIndex, att.seedSalt)
/// — the payload carries no wall-clock or process-identity fields, which
/// is what makes campaign output byte-comparable. The run is the
/// scenario's run at seed (baseSeed + runIndex) ^ att.seedSalt
/// (startFor / engineOptionsFor), so a one-run spec's run 0 is exactly
/// apf_sim's single run at --seed baseSeed.
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
