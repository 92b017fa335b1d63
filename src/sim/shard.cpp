#include "sim/shard.h"

#include <stdexcept>

#include "obs/json.h"
#include "sim/engine.h"
#include "sim/shrink.h"

namespace apf::sim {

// ----------------------------------------------------------------- wire --

std::string toJson(const ShardSpec& spec) {
  obs::JsonObjectWriter w;
  w.field("shard", ShardSpec::kSchema);
  w.field("algo", spec.algo);
  w.field("n", static_cast<std::uint64_t>(spec.n));
  w.field("pattern_label", spec.patternLabel);
  w.rawField("pattern", pointsJson(spec.pattern));
  w.field("start_kind", spec.startKind);
  // The fixed start is only on the wire when it is authoritative, so two
  // specs that run the same campaign get the same config key.
  if (spec.startKind == "points") {
    w.rawField("start", pointsJson(spec.start));
  }
  w.field("sched", sched::schedulerName(spec.sched));
  w.field("base_seed", spec.baseSeed);
  w.field("runs", spec.runs);
  w.field("max_events", spec.maxEvents);
  w.field("delta", spec.delta);
  w.field("multiplicity", spec.multiplicityDetection);
  w.field("chirality", spec.commonChirality);
  w.field("crash_f", spec.crashF);
  w.field("crash_horizon", spec.crashHorizon);
  w.rawField("fault", fault::toJson(spec.fault));
  w.field("fault_seed_set", spec.faultSeedSet);
  w.field("watchdog_events", spec.watchdogEvents);
  w.field("watchdog_ms", spec.watchdogMs);
  w.field("retries", spec.retries);
  return w.str();
}

std::string shardConfigKey(const ShardSpec& spec) { return toJson(spec); }

std::string validateShardSpec(const ShardSpec& spec) {
  if (spec.runs == 0) return "runs must be at least 1";
  if (spec.retries < 0) return "retries must be non-negative";
  if (spec.earlyStopProb != Scenario().earlyStopProb) {
    return "early_stop_prob is not part of apf.shard.v1";
  }
  return validate(spec);
}

// ------------------------------------------------------------ execution --

SupervisorOptions shardSupervisorOptions(const ShardSpec& spec,
                                         obs::Recorder* recorder) {
  SupervisorOptions opts;
  opts.cycleBudget = spec.watchdogEvents;
  opts.wallBudgetNanos = spec.watchdogMs * 1'000'000ull;
  opts.maxRetries = spec.retries;
  opts.recorder = recorder;
  return opts;
}

std::string runScenarioPayload(const ShardSpec& spec, const Algorithm& algo,
                               std::uint64_t runIndex, const Attempt& att) {
  // Retry salts XOR into the effective seed (0 for attempts 0/1 —
  // the same-seed determinism proof); crash victims/timings are re-drawn
  // per run (engineOptionsFor) so the campaign explores many crash
  // schedules. The payload is a flat JSON line with only deterministic
  // fields, so campaign outputs diff bit-identical across thread counts,
  // resumes and machines.
  const std::uint64_t eff = (spec.baseSeed + runIndex) ^ att.seedSalt;
  EngineOptions eopts = engineOptionsFor(spec, eff);
  eopts.watchdog = att.watchdog;
  Engine eng(startFor(spec, eff), spec.pattern, algo, std::move(eopts));
  const RunResult res = eng.run();
  obs::JsonObjectWriter w;
  w.field("seed", eff);
  w.field("outcome", outcomeName(res.outcome));
  w.field("success", res.success);
  w.field("terminated", res.terminated);
  w.field("cycles", res.metrics.cycles);
  w.field("events", res.metrics.events);
  w.field("bits", res.metrics.randomBits);
  w.field("distance", res.metrics.distance);
  return w.str();
}

SupervisorReport runShard(const ShardSpec& spec, const Algorithm& algo,
                          std::uint64_t lo, std::uint64_t hi,
                          CampaignJournal* journal, obs::Recorder* recorder,
                          int jobs, CampaignStats* stats,
                          std::vector<std::string>* payloads) {
  if (lo > hi || hi > spec.runs) {
    throw std::runtime_error("shard: range [" + std::to_string(lo) + ", " +
                             std::to_string(hi) + ") exceeds " +
                             std::to_string(spec.runs) + " runs");
  }
  if (payloads != nullptr && payloads->size() < spec.runs) {
    payloads->resize(spec.runs);
  }
  const SupervisorOptions opts = shardSupervisorOptions(spec, recorder);
  SupervisorReport report;
  report.items = hi - lo;
  detail::MergeSink sink(report, opts);

  // Over GLOBAL run indices: payloads are delivered in ascending global
  // order, journaled runs replay their payload verbatim without
  // re-execution, and a fresh payload is journaled before it is delivered.
  // So a resumed campaign, or [0, runs) run as any sequence of slices on
  // one journal, writes and delivers the same bytes as one uninterrupted
  // call.
  std::vector<std::uint64_t> todo;
  todo.reserve(static_cast<std::size_t>(hi - lo));
  for (std::uint64_t i = lo; i < hi; ++i) {
    if (journal == nullptr || !journal->has(static_cast<std::size_t>(i))) {
      todo.push_back(i);
    }
  }

  auto deliver = [&](std::uint64_t index, std::string&& payload) {
    if (payloads != nullptr) {
      (*payloads)[static_cast<std::size_t>(index)] = std::move(payload);
    }
  };
  std::uint64_t cursor = lo;
  auto flushJournaled = [&](std::uint64_t limit) {
    for (; cursor < limit; ++cursor) {
      if (journal == nullptr) continue;
      if (const std::string* p =
              journal->payload(static_cast<std::size_t>(cursor))) {
        ++report.replayed;
        deliver(cursor, std::string(*p));
      }
    }
  };

  auto worker = [&](const std::uint64_t& index, std::size_t,
                    const Attempt& att) -> std::string {
    return runScenarioPayload(spec, algo, index, att);
  };
  runCampaign(
      todo,
      [&](const std::uint64_t& index, std::size_t) {
        return detail::runAttempts<std::uint64_t, decltype(worker),
                                   std::string>(index, index, worker, opts);
      },
      [&](std::size_t t, detail::Supervised<std::string>&& s) {
        const std::uint64_t index = todo[t];
        flushJournaled(index);
        cursor = index + 1;
        const auto si = static_cast<std::size_t>(index);
        if (s.ok) {
          sink.recordRetries(si, s.failures);
          if (journal != nullptr) {
            journal->append(si, s.result);
            sink.recordCheckpoint(si, s.result.size());
          }
          ++report.completed;
          deliver(index, std::move(s.result));
        } else {
          sink.recordQuarantine(si, s.deterministic, std::move(s.failures));
        }
      },
      jobs, stats);
  flushJournaled(hi);
  return report;
}

}  // namespace apf::sim
