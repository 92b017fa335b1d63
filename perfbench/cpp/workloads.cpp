/// \file workloads.cpp
/// Set-up and execution of the three workloads, with the correctness gate
/// applied to every run.

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "config/generator.h"
#include "config/similarity.h"
#include "config/symmetry.h"
#include "core/analysis.h"
#include "core/form_pattern.h"
#include "core/rsb.h"
#include "obs/json.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "perfbench.h"
#include "sched/rng.h"
#include "sched/seed.h"
#include "sim/engine.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace apf;

namespace {

/// The matching tolerance of the engine's own success criterion
/// (sim::Engine::success, on SEC-normalised coordinates).
const geom::Tol kSuccessTol{1e-6, 1e-6};

/// The campaign's light, recoverable fault plan: snapshot omission, dropped
/// and truncated paths, no crashes.
constexpr double kOmitProb = 0.01;
constexpr double kDropProb = 0.01;
constexpr double kTruncProb = 0.02;

/// Pool width of the traced mode's untraced campaign pass (capped by the
/// host), whose CampaignStats give the pool metrics. The timed end-to-end
/// pass runs at one thread: on a shared host a pool's wall times follow
/// the other tenants' load far more strongly than one thread's do.
constexpr int kPoolWidth = 2;

int hostThreads() {
  return static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

/// Per-run seed derived from the workload seed, a stream tag and an index.
/// Kept below 2^53 so it survives any JSON round trip unchanged.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  return sched::splitmix64(sched::splitmix64(seed ^ (stream << 32)) +
                           index) >>
         11;
}

Sizes sizesFor(Kind kind, bool tiny) {
  Sizes s;
  switch (kind) {
    case Kind::Election:
      s.n = tiny ? 8 : 16;
      s.rho = static_cast<int>(s.n / 2);
      s.runs = tiny ? 2 : 140;
      s.maxEvents = 50'000;
      break;
    case Kind::Formation:
      s.n = tiny ? 8 : 16;
      s.runs = tiny ? 2 : 180;
      s.maxEvents = 300'000;
      break;
    case Kind::Campaign:
      s.n = 8;
      s.specs = tiny ? 2 : 96;
      s.runs = 4;
      s.maxEvents = 75'000;
      s.jobs = std::min(kPoolWidth, hostThreads());
      break;
  }
  return s;
}

Kind kindOf(const std::string& name) {
  if (name == "election") return Kind::Election;
  if (name == "formation") return Kind::Formation;
  if (name == "campaign") return Kind::Campaign;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (election, formation, campaign)");
}

/// True when the configuration has a selected robot per the paper's
/// definition, as core::Analysis computes it on a snapshot of `robots`.
bool hasSelectedRobot(const config::Configuration& robots,
                      const config::Configuration& pattern) {
  sim::Snapshot snap;
  snap.robots = robots;
  snap.pattern = pattern;
  core::Analysis a(snap);
  return a.ok() && a.selectedRobot().has_value();
}

/// True when no robot would move from `robots`: `algo`, given each robot's
/// own snapshot of the configuration (translated to the robot, full
/// visibility), returns a stay action. This does not depend on the
/// engine's success predicate; it asks the algorithm itself whether it is
/// done.
bool quiescent(const sim::Algorithm& algo,
               const config::Configuration& robots,
               const config::Configuration& pattern) {
  sim::Snapshot snap;
  snap.pattern = pattern;
  // This is a check, not a run: the bits drawn here are never counted.
  sched::RandomSource rng(0);
  for (std::size_t i = 0; i < robots.size(); ++i) {
    std::vector<geom::Vec2> local;
    local.reserve(robots.size());
    for (const geom::Vec2& p : robots.points()) local.push_back(p - robots[i]);
    snap.robots = config::Configuration(std::move(local));
    snap.selfIndex = i;
    if (algo.compute(snap, rng).isMove()) return false;
  }
  return true;
}

/// The fields of a runShard payload (one flat JSON object) that the
/// benchmark reads.
struct Payload {
  std::uint64_t seed = 0;
  std::string outcome;
  bool success = false;
  bool terminated = false;
  RunCounts counts;
};

Payload parsePayload(const std::string& text) {
  const std::optional<obs::JsonNode> doc = obs::parseJson(text);
  if (!doc) throw std::runtime_error("unparsable runShard payload: " + text);
  auto field = [&](const char* key) -> const obs::JsonNode& {
    const obs::JsonNode* v = doc->find(key);
    if (v == nullptr) {
      throw std::runtime_error("payload lacks '" + std::string(key) +
                               "': " + text);
    }
    return *v;
  };
  Payload p;
  p.seed = field("seed").asU64();
  p.outcome = field("outcome").asString();
  p.success = field("success").asBool();
  p.terminated = field("terminated").asBool();
  p.counts = {field("cycles").asU64(), field("events").asU64(),
              field("bits").asU64()};
  return p;
}

/// Keeps the compiler from dropping the calibration kernel.
volatile double gKernelSink = 0.0;

/// One round of the calibration kernel over 64 fixed points.
double kernelRound() {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  std::array<double, 128> v{};
  for (double& x : v) {
    h = sched::splitmix64(h);
    x = static_cast<double>(h >> 11) * 0x1.0p-53;
  }
  double acc = 0.0;
  for (int rep = 0; rep < 40; ++rep) {
    // Pairwise distances and angles, then a sort and a permutation, so the
    // next round sees other pairs.
    for (std::size_t i = 0; i < 64; ++i) {
      for (std::size_t j = i + 1; j < 64; j += 3) {
        const double dx = v[2 * i] - v[2 * j];
        const double dy = v[2 * i + 1] - v[2 * j + 1];
        const double d = std::sqrt(dx * dx + dy * dy);
        acc += d < 0.5 ? std::atan2(dy, dx) : d;
      }
    }
    std::sort(v.begin(), v.end());
    for (std::size_t i = 0; i < 64; ++i) {
      std::swap(v[2 * i], v[(2 * (i * 37 + rep) + 1) % 128]);
    }
  }
  return acc;
}

}  // namespace

double calibrationKernelMs() {
  // The first round warms the caches the preceding run left cold, so the
  // timed second one does not depend on what that run touched.
  gKernelSink = kernelRound();
  const std::uint64_t t0 = obs::nowNanos();
  gKernelSink = kernelRound();
  return static_cast<double>(obs::nowNanos() - t0) / 1e6;
}

std::size_t Workload::totalRuns() const {
  if (kind != Kind::Campaign) return inputs.size();
  std::size_t total = 0;
  for (const sim::ShardSpec& spec : specs) total += spec.runs;
  return total;
}

void EngineCounters::add(const sim::Metrics& m) {
  events += m.events;
  faults += m.faultsInjected;
  secHits += m.secCacheHits;
  secMisses += m.secCacheMisses;
  weberHits += m.weberCacheHits;
  weberMisses += m.weberCacheMisses;
}

const sim::Algorithm& workloadAlgorithm(const Workload& w) {
  static const core::RsbOnlyAlgorithm rsb;
  static const core::FormPatternAlgorithm form;
  if (w.kind == Kind::Election) return rsb;
  return form;
}

Workload setupWorkload(const std::string& name, std::uint64_t seed,
                       bool tiny, const std::string& workDir) {
  Workload w;
  w.kind = kindOf(name);
  w.name = name;
  w.sizes = sizesFor(w.kind, tiny);
  const Sizes& s = w.sizes;

  if (w.kind == Kind::Campaign) {
    for (std::size_t k = 0; k < s.specs; ++k) {
      config::Rng rng(derive(seed, 3, k));
      sim::ShardSpec spec;
      spec.algo = "form";
      spec.n = s.n;
      spec.patternLabel = "random";
      spec.pattern = config::randomPattern(s.n, rng);
      spec.startKind = "random";
      spec.sched = sched::SchedulerKind::Async;
      spec.baseSeed = derive(seed, 4, k);
      spec.runs = s.runs;
      spec.maxEvents = s.maxEvents;
      spec.fault.omitProb = kOmitProb;
      spec.fault.dropProb = kDropProb;
      spec.fault.truncProb = kTruncProb;
      const std::string why = sim::validateShardSpec(spec);
      if (!why.empty()) throw std::runtime_error("campaign spec: " + why);
      w.specs.push_back(std::move(spec));
    }
    // Journals are created fresh (resume = false) and removed after their
    // spec, so a repeated set-up finds the directory in place.
    w.journalDir = workDir + "/journals-" + std::to_string(::getpid());
    fs::create_directories(w.journalDir);
    return w;
  }

  for (std::size_t i = 0; i < s.runs; ++i) {
    config::Rng rng(derive(seed, w.kind == Kind::Election ? 1 : 2, i));
    SerialInput in;
    if (w.kind == Kind::Election) {
      in.start = config::symmetricConfiguration(
          s.rho, static_cast<int>(s.n) / s.rho, rng);
      const int rho = config::symmetricity(in.start, in.start.sec().center);
      if (rho != s.rho) {
        throw std::runtime_error("election start " + std::to_string(i) +
                                 " has symmetricity " + std::to_string(rho));
      }
    } else {
      in.start = config::randomConfiguration(s.n, rng, 5.0, 0.1);
      const geom::Vec2 c = in.start.sec().center;
      if (config::symmetricity(in.start, c) != 1 ||
          !config::symmetryAxes(in.start, c).empty()) {
        throw std::runtime_error("formation start " + std::to_string(i) +
                                 " is symmetric");
      }
    }
    in.pattern = config::randomPattern(s.n, rng);
    in.engineSeed = derive(seed, 5, i);
    w.inputs.push_back(std::move(in));
  }
  return w;
}

namespace {

/// The benchmark's own check of a formation run that reports success: the
/// run terminated, its final positions are config::similar to the pattern
/// (this mirrors the engine's success predicate), and the workload's
/// algorithm would move no robot from them (which does not).
bool formedAndQuiescent(const Workload& w, const sim::RunResult& res,
                        const config::Configuration& pattern) {
  return res.terminated &&
         config::similar(res.finalPositions, pattern, kSuccessTol) &&
         quiescent(workloadAlgorithm(w), res.finalPositions, pattern);
}

RunRecord runSerial(const Workload& w, const SerialInput& in,
                    const sim::Algorithm& algo, std::size_t index,
                    EngineCounters& counters) {
  sim::EngineOptions opts;
  opts.seed = in.engineSeed;
  opts.sched.kind = sched::SchedulerKind::Async;
  opts.maxEvents = w.sizes.maxEvents;

  RunRecord rec;
  const std::uint64_t t0 = obs::nowNanos();
  sim::RunResult res;
  {
    obs::ScopedSpan span("run", "perfbench.sim", "run",
                         static_cast<std::int64_t>(index));
    sim::Engine eng(in.start, in.pattern, algo, opts);
    res = eng.run();
  }
  rec.wallMs = static_cast<double>(obs::nowNanos() - t0) / 1e6;
  rec.counts = {res.metrics.cycles, res.metrics.events,
                res.metrics.randomBits};
  counters.add(res.metrics);
  rec.outcome = sim::outcomeName(res.outcome);

  if (w.kind == Kind::Election) {
    // psi_RSB alone: the goal is a terminal configuration with a selected
    // robot; "terminated" is what the run itself reports.
    const bool selected =
        res.terminated && hasSelectedRobot(res.finalPositions, in.pattern) &&
        quiescent(workloadAlgorithm(w), res.finalPositions, in.pattern);
    rec.goalMet = selected;
    rec.checkFailed = res.terminated && !selected;
  } else {
    rec.goalMet = res.success && formedAndQuiescent(w, res, in.pattern);
    rec.checkFailed = res.success && !rec.goalMet;
  }
  return rec;
}

RunRecord recordFromPayload(std::string payload, std::size_t spec,
                            std::uint64_t run) {
  const Payload p = parsePayload(payload);
  RunRecord rec;
  rec.counts = p.counts;
  rec.outcome = p.outcome;
  rec.goalMet = p.outcome == "success" && p.success;
  rec.spec = spec;
  rec.run = run;
  rec.payload = std::move(payload);
  return rec;
}

}  // namespace

PassResult runPass(const Workload& w, const sim::Algorithm* algo, int jobs,
                   obs::SpanCollector* traceFirst, bool calibrate) {
  const sim::Algorithm& a = algo != nullptr ? *algo : workloadAlgorithm(w);
  PassResult pass;
  if (w.kind != Kind::Campaign) {
    for (std::size_t i = 0; i < w.inputs.size(); ++i) {
      const double kernelMs = calibrate ? calibrationKernelMs() : 0.0;
      if (i == 0 && traceFirst != nullptr) traceFirst->install();
      pass.runs.push_back(runSerial(w, w.inputs[i], a, i, pass.counters));
      if (i == 0 && traceFirst != nullptr) obs::SpanCollector::uninstall();
      pass.runs.back().kernelMs = kernelMs;
      pass.wallMs += pass.runs.back().wallMs;
    }
    return pass;
  }

  const std::uint64_t t0 = obs::nowNanos();
  for (std::size_t k = 0; k < w.specs.size(); ++k) {
    const sim::ShardSpec& spec = w.specs[k];
    const std::string path =
        w.journalDir + "/spec" + std::to_string(k) + ".journal";
    std::vector<std::string> payloads;
    std::vector<double> runMs(spec.runs, 0.0);
    std::vector<double> kernelMs(spec.runs, 0.0);
    if (k == 0 && traceFirst != nullptr) traceFirst->install();
    {
      obs::ScopedSpan span("shard", "perfbench.campaign", "spec",
                           static_cast<std::int64_t>(k));
      sim::CampaignJournal journal(path, sim::shardConfigKey(spec),
                                   /*resume=*/false);
      if (jobs > 1) {
        sim::CampaignStats stats;
        pass.supervisor.absorb(sim::runShard(spec, a, 0, spec.runs, &journal,
                                             nullptr, jobs, &stats,
                                             &payloads));
        pass.campaignStats.push_back(stats);
      } else {
        // One thread: each run is its own runShard slice [i, i+1) on the
        // spec's journal (global indices, so the payloads and the journal
        // are those of the whole-spec call), timed with its supervision,
        // journal append and fsync.
        for (std::uint64_t i = 0; i < spec.runs; ++i) {
          if (calibrate) kernelMs[i] = calibrationKernelMs();
          const std::uint64_t r0 = obs::nowNanos();
          pass.supervisor.absorb(sim::runShard(spec, a, i, i + 1, &journal,
                                               nullptr, 1, nullptr,
                                               &payloads));
          runMs[i] = static_cast<double>(obs::nowNanos() - r0) / 1e6;
        }
      }
    }
    if (k == 0 && traceFirst != nullptr) obs::SpanCollector::uninstall();
    pass.journalBytes += fs::file_size(path);
    fs::remove(path);
    for (std::uint64_t i = 0; i < payloads.size(); ++i) {
      // An empty slot is a quarantined run, counted by the supervisor.
      if (payloads[i].empty()) continue;
      pass.runs.push_back(recordFromPayload(std::move(payloads[i]), k, i));
      pass.runs.back().wallMs = runMs[i];
      pass.runs.back().kernelMs = kernelMs[i];
    }
  }
  pass.wallMs = static_cast<double>(obs::nowNanos() - t0) / 1e6;
  return pass;
}

namespace {

/// Re-executes one campaign run directly and checks it; returns its
/// metrics.
sim::Metrics replayOne(const Workload& w, const RunRecord& rec) {
  // The per-run options that sim/shard.h documents for apf.shard.v1: seed
  // = the payload's effective seed, fault stream seeded likewise, random
  // start drawn from seed + 7.
  const sim::ShardSpec& spec = w.specs.at(rec.spec);
  const Payload p = parsePayload(rec.payload);
  sim::EngineOptions opts;
  opts.seed = p.seed;
  opts.maxEvents = spec.maxEvents;
  opts.sched.kind = spec.sched;
  opts.sched.delta = spec.delta;
  opts.fault = spec.fault;
  opts.fault.seed = p.seed;
  config::Rng rng(p.seed + 7);
  const config::Configuration start =
      config::randomConfiguration(spec.n, rng, 5.0, 0.1);
  sim::Engine eng(start, spec.pattern, workloadAlgorithm(w), opts);
  const sim::RunResult res = eng.run();

  const std::string where = "campaign spec " + std::to_string(rec.spec) +
                            " run " + std::to_string(rec.run);
  const RunCounts counts{res.metrics.cycles, res.metrics.events,
                         res.metrics.randomBits};
  if (!(counts == rec.counts) || p.outcome != sim::outcomeName(res.outcome) ||
      p.success != res.success || p.terminated != res.terminated) {
    throw std::runtime_error(where + ": direct replay diverges from runShard: " +
                             rec.payload);
  }
  if (rec.goalMet && !formedAndQuiescent(w, res, spec.pattern)) {
    throw std::runtime_error(
        where + " reports success but its final configuration is not the "
                "pattern, or not quiescent");
  }
  return res.metrics;
}

}  // namespace

EngineCounters replayCampaignDirect(const Workload& w,
                                    const PassResult& pooled) {
  // Runs are independent and each engine is confined to its thread, so the
  // replay splits them over up to four threads; the first failure (in
  // thread order) is rethrown. The replay is not timed.
  const std::size_t threads = static_cast<std::size_t>(hostThreads());
  std::vector<sim::Metrics> metrics(pooled.runs.size());
  std::vector<std::string> errors(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t r = t; r < pooled.runs.size(); r += threads) {
          metrics[r] = replayOne(w, pooled.runs[r]);
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error(e);
  }
  EngineCounters counters;
  for (const sim::Metrics& m : metrics) counters.add(m);
  return counters;
}

}  // namespace perfbench
