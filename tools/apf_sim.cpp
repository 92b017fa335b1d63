/// \file apf_sim.cpp
/// Command-line simulator: run any of the library's algorithms on a chosen
/// start/pattern under a chosen adversary, print the run summary, and
/// optionally dump a trajectory SVG and a trace (position CSV, or Chrome
/// trace-event spans when the --trace file ends in .json).
///
/// Usage examples:
///   apf_sim --n 10 --pattern star --sched async --seed 7
///   apf_sim --start symmetric --pattern random --svg run.svg
///   apf_sim --algo yy --no-chirality            # watch the baseline fail
///   apf_sim --start-file my_start.txt --pattern-file my_pattern.txt
///   apf_sim --jsonl run.jsonl --manifest run.manifest.json   # telemetry
///   apf_sim --json                              # one JSON line for scripts
///
/// Supervised campaigns (docs/RESILIENCE.md): --campaign N runs N seeded
/// runs on the campaign pool under watchdog deadlines, bounded retry, and
/// quarantine; --journal/--resume add a crash-safe checkpoint so a killed
/// campaign continues where it stopped and merges bit-identical to an
/// uninterrupted one:
///   apf_sim --campaign 50 --journal c.journal --json > out.json
///   apf_sim --campaign 50 --resume  c.journal --json > out.json
/// Failure repro (sim/shrink.h): --repro-out captures a run's replay
/// coordinates as a self-contained .repro.json (minimized with --shrink),
/// and --replay re-executes one, exiting 0 iff the violation reproduces.

#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "config/classify.h"
#include "core/phases.h"
#include "fault/fault.h"
#include "io/patterns.h"
#include "io/serialize.h"
#include "io/svg.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/recorder.h"
#include "obs/span.h"
#include "sim/engine.h"
#include "sim/shard.h"
#include "sim/shrink.h"
#include "sim/supervisor.h"
#include "sim/trace.h"
#include "algo_select.h"
#include "cli_parse.h"
#include "scenario_flags.h"

namespace {

struct Options {
  /// The shared experiment flags; the fault flags below write into the
  /// same scenario.
  apf::cli::ScenarioFlags exp;
  std::string patternFile;
  std::string startFile;
  std::string svgPath;
  std::string tracePath;
  std::string jsonlPath;
  std::string manifestPath;
  bool json = false;
  bool quiet = false;
  /// Analyze the start configuration (Definitions 1-3) instead of running.
  bool analyze = false;
  // Supervised campaigns (docs/RESILIENCE.md).
  std::uint64_t campaignRuns = 0;  // 0 = single-run mode
  std::string journalPath;         // fresh journal (truncates)
  std::string resumePath;          // resume an existing journal
  std::uint64_t watchdogEvents = 0;
  std::uint64_t watchdogMs = 0;
  int retries = 2;
  std::string quarantinePath;
  // Failure repro (sim/shrink.h).
  std::string replayPath;
  std::string reproOutPath;
  bool doShrink = false;
};

void registerFlags(apf::cli::ArgParser& args, Options& o) {
  using apf::cli::ArgParser;
  apf::sim::Scenario& sc = o.exp.scenario;
  apf::cli::registerScenarioFlags(
      args, o.exp,
      "polygon|star|grid|spiral|ringcore|random|\n"
      "mult|center-mult (default star)",
      "RNG seed (default 1)");
  args.str("--pattern-file", &o.patternFile, "F",
           "load pattern points from file ('x y' per line)");
  args.str("--start-file", &o.startFile, "F", "load start points from file");
  args.str("--svg", &o.svgPath, "FILE", "write trajectory SVG");
  args.str("--trace", &o.tracePath, "FILE",
           "write a position trace CSV; a FILE ending in\n"
           ".json instead captures look/compute/move spans\n"
           "as Chrome trace-event JSON (chrome://tracing)");
  args.str("--jsonl", &o.jsonlPath, "FILE",
           "write structured event log (JSONL; see\n"
           "docs/OBSERVABILITY.md and apf_report)");
  args.str("--manifest", &o.manifestPath, "FILE",
           "write run manifest (reproducibility record)");

  args.section("fault injection (docs/FAULTS.md)");
  args.intNonNegative("--crash", &sc.crashF, "F",
                      "crash-stop F random robots (victims/timings\n"
                      "drawn from --fault-seed)");
  args.u64("--crash-horizon", &sc.crashHorizon, "N",
           "scheduler-event window for crashes (default\n2000)",
           nullptr, /*positive=*/true);
  args.num("--noise", &sc.fault.noiseSigma, ArgParser::Num::NonNegative, "S",
           "Gaussian snapshot noise, std dev S (global\nunits)");
  args.num("--omit", &sc.fault.omitProb, ArgParser::Num::Probability, "P",
           "omit each observed robot with probability P");
  args.num("--mult-flip", &sc.fault.multFlipProb,
           ArgParser::Num::Probability, "P",
           "flip perceived multiplicity with probability P");
  args.num("--drop", &sc.fault.dropProb, ArgParser::Num::Probability, "P",
           "drop a computed path with probability P");
  args.num("--trunc", &sc.fault.truncProb, ArgParser::Num::Probability, "P",
           "truncate a computed path with probability P");
  args.u64("--fault-seed", &sc.fault.seed, "S",
           "fault RNG stream seed (default: --seed)", &sc.faultSeedSet);

  args.section("supervised campaigns (docs/RESILIENCE.md)");
  args.u64("--campaign", &o.campaignRuns, "N",
           "run N seeded runs (seeds --seed..+N-1) on the\n"
           "campaign pool under the supervisor; exit 0 iff\n"
           "nothing was quarantined",
           nullptr, /*positive=*/true);
  args.str("--journal", &o.journalPath, "F",
           "crash-safe checkpoint journal (fresh file)");
  args.str("--resume", &o.resumePath, "F",
           "resume from journal F (skips completed runs;\n"
           "merges bit-identical to an uninterrupted\ncampaign)");
  args.u64("--watchdog-events", &o.watchdogEvents, "N",
           "per-attempt cycle budget (deterministic;\n"
           "also applies to single runs, exit code 3)");
  args.u64("--watchdog-ms", &o.watchdogMs, "N",
           "per-attempt wall budget (nondeterministic)");
  args.intNonNegative("--retries", &o.retries, "N",
                      "retry budget per run (default 2; attempt 1\n"
                      "reuses the same seed to prove determinism)");
  args.str("--quarantine", &o.quarantinePath, "F",
           "write the supervisor report JSON to F");

  args.section("failure repro (sim/shrink.h)");
  args.str("--replay", &o.replayPath, "F",
           "re-execute a .repro.json; exit 0 iff the\n"
           "recorded violation reproduces");
  args.str("--repro-out", &o.reproOutPath, "F",
           "write this run's replay coordinates as a\n"
           "self-contained .repro.json");
  args.flag("--shrink", &o.doShrink,
            "minimize the repro before writing (delta\n"
            "debugging; only with --repro-out)");

  args.section("general");
  args.flag("--json", &o.json,
            "print run manifest + result as one JSON line");
  args.flag("--analyze", &o.analyze,
            "classify the start configuration and exit");
  args.flag("--quiet", &o.quiet, "summary line only");
}

/// The campaign-describing manifest fields, derived from the spec so the
/// manifest and the journal config key cannot disagree.
apf::obs::Manifest campaignManifest(const apf::sim::ShardSpec& spec,
                                    const std::string& algoName) {
  apf::obs::Manifest m;
  m.set("campaign", "apf_sim");
  m.set("algo", algoName);
  m.set("n", static_cast<std::uint64_t>(spec.n));
  m.set("pattern", spec.patternLabel);
  m.set("start", spec.startKind);
  m.set("sched", apf::sched::schedulerName(spec.sched));
  m.set("seed", spec.baseSeed);
  m.set("runs", spec.runs);
  m.set("max_events", spec.maxEvents);
  m.set("delta", spec.delta);
  m.set("multiplicity", spec.multiplicityDetection);
  m.set("chirality", spec.commonChirality);
  m.set("crash_f", spec.crashF);
  m.set("crash_horizon", spec.crashHorizon);
  m.set("fault", apf::fault::toJson(spec.fault));
  return m;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace apf;
  Options o;
  cli::ArgParser args(
      "apf_sim",
      "LCM robot simulator for probabilistic asynchronous\n"
      "arbitrary pattern formation (Bramas & Tixeuil, PODC 2016)");
  registerFlags(args, o);
  args.exitNotes(", 3 watchdog expired");
  args.parse(argc, argv);

  // --replay re-executes a self-contained .repro.json exactly (same safety
  // observer as the fuzzer) and reports whether the recorded violation
  // reproduces. Every run coordinate comes from the file, not the CLI.
  if (!o.replayPath.empty()) {
    const sim::ReproCase repro = sim::loadRepro(o.replayPath);
    bool ignoredMult = false;
    const auto replayAlgo = cli::makeAlgorithm(repro.algo, ignoredMult);
    if (replayAlgo == nullptr) {
      std::fprintf(stderr, "apf_sim: repro names unknown algorithm '%s'\n",
                   repro.algo.c_str());
      return 2;
    }
    const sim::ReplayResult r = sim::replay(repro, *replayAlgo);
    const bool ok = r.reproduces(repro);
    std::printf(
        "replay %s: algo=%s n=%zu expect=%s -> %s\n", o.replayPath.c_str(),
        repro.algo.c_str(), repro.start.size(),
        repro.violationKind.empty() ? "(any violation)"
                                    : repro.violationKind.c_str(),
        ok ? "REPRODUCED" : (r.violated ? "different violation" : "clean"));
    if (r.violated && !o.quiet) {
      std::printf("  %s at event %llu: %s\n", r.violationKind.c_str(),
                  static_cast<unsigned long long>(r.violationEvent),
                  r.violation.c_str());
    }
    return ok ? 0 : 1;
  }

  // The scenario: pattern points (a file fixes n), an optional start file,
  // the algorithm (which may force multiplicity detection), the scheduler.
  sim::Scenario& sc = o.exp.scenario;
  const std::uint64_t seed = o.exp.seed;
  if (!o.patternFile.empty()) {
    sc.pattern = io::loadConfiguration(o.patternFile);
    sc.n = sc.pattern.size();
    sc.patternLabel = o.patternFile;
  } else if (sc.patternLabel == "mult") {
    sc.pattern = io::multiplicityPattern(sc.n);
    sc.multiplicityDetection = true;
  } else if (sc.patternLabel == "center-mult") {
    sc.pattern = io::centerMultiplicityPattern(sc.n);
    sc.multiplicityDetection = true;
  } else {
    sc.pattern = io::patternByName(sc.patternLabel, sc.n, seed + 1000);
  }
  if (!o.startFile.empty()) {
    sc.startKind = "points";
    sc.start = io::loadConfiguration(o.startFile);
  }
  if (!sc.faultSeedSet) sc.fault.seed = seed;
  cli::requireValid("apf_sim", sc);

  // The start of run `seed`, which a campaign's run 0 also starts from.
  const config::Configuration start = sim::startFor(sc, seed);
  if (o.analyze) {
    const auto report = config::classify(start);
    std::printf("%s", report.describe().c_str());
    return 0;
  }

  std::unique_ptr<sim::Algorithm> algo =
      cli::makeAlgorithm(sc.algo, sc.multiplicityDetection);
  if (algo == nullptr) {
    std::fprintf(stderr, "unknown algorithm: %s (want %s)\n",
                 sc.algo.c_str(), cli::algorithmNames());
    return 2;
  }
  sc.sched = cli::schedulerOrExit("apf_sim", o.exp.sched);

  // The run's options. Crash victims/timings are drawn here so the summary
  // and manifest record the concrete plan, not just "F crashes".
  sim::EngineOptions opts = sim::engineOptionsFor(sc, seed);
  std::unique_ptr<obs::JsonlRecorder> sink;
  if (!o.jsonlPath.empty()) {
    sink = std::make_unique<obs::JsonlRecorder>(o.jsonlPath);
    opts.recorder = sink.get();
  }
  opts.collectTimings =
      !o.jsonlPath.empty() || !o.manifestPath.empty() || o.json;

  // ------------------------------------------------ supervised campaign --
  if (o.campaignRuns > 0) {
    sim::ShardSpec spec;
    static_cast<sim::Scenario&>(spec) = sc;
    spec.baseSeed = seed;
    spec.runs = o.campaignRuns;
    spec.watchdogEvents = o.watchdogEvents;
    spec.watchdogMs = o.watchdogMs;
    spec.retries = o.retries;
    // The spec's canonical JSON is the journal config key: resuming with
    // ANY different option is a different experiment and must be refused,
    // not silently merged.
    const std::string configKey = sim::shardConfigKey(spec);
    const bool resuming = !o.resumePath.empty();
    const std::string jpath = resuming ? o.resumePath : o.journalPath;

    const sim::SupervisorOptions sopts =
        sim::shardSupervisorOptions(spec, sink.get());
    std::vector<std::string> payloads(spec.runs);
    std::unique_ptr<sim::CampaignJournal> journal;
    if (!jpath.empty()) {
      journal =
          std::make_unique<sim::CampaignJournal>(jpath, configKey, resuming);
    }
    const sim::SupervisorReport report =
        sim::runShard(spec, *algo, 0, spec.runs, journal.get(), sink.get(),
                      /*jobs=*/0, /*stats=*/nullptr, &payloads);

    if (!o.quarantinePath.empty()) report.write(o.quarantinePath);
    if (!o.manifestPath.empty()) {
      obs::Manifest m;
      obs::addBuildInfo(m);
      m.set("tool", "apf_sim.campaign");
      m.merge(campaignManifest(spec, algo->name()));
      // The resume-invariant variant: fresh-vs-replayed collapses into
      // supervisor.finished, so this manifest is byte-identical for
      // uninterrupted and resumed executions of the same spec.
      sim::appendManifestInvariant(sopts, report, m);
      m.write(o.manifestPath);
    }

    std::map<std::string, int> outcomes;
    for (const std::string& p : payloads) {
      if (p.empty()) continue;  // quarantined run: no payload
      const auto obj = obs::parseFlatObject(p);
      if (!obj) continue;
      const auto it = obj->find("outcome");
      if (it != obj->end()) outcomes[it->second.asString("?")] += 1;
    }

    if (o.json) {
      // Deliberately free of wall-clock fields AND of the fresh-vs-replayed
      // split (only their sum is invariant): a resumed campaign must print
      // a document byte-identical to an uninterrupted one's — the CI
      // kill-and-resume check diffs them directly. The split lives in the
      // human output and the --quarantine report.
      obs::JsonObjectWriter top;
      top.field("schema", "apf.campaign.v1");
      top.field("runs", o.campaignRuns);
      top.field("finished", report.completed + report.replayed);
      top.field("retries", report.retries);
      top.field("quarantined", report.quarantined);
      obs::JsonObjectWriter byOutcome;
      for (const auto& [name, count] : outcomes) {
        byOutcome.field(name, count);
      }
      top.rawField("outcomes", byOutcome.str());
      std::string rows;
      for (std::size_t i = 0; i < payloads.size(); ++i) {
        if (i) rows += ',';
        rows += payloads[i].empty() ? "null" : payloads[i];
      }
      top.rawField("results", "[" + rows + "]");
      std::printf("%s\n", top.str().c_str());
    } else {
      std::printf(
          "campaign: %llu runs  algo=%s n=%zu sched=%s seeds=%llu..%llu\n"
          "  completed=%llu replayed=%llu retries=%llu quarantined=%llu\n",
          static_cast<unsigned long long>(o.campaignRuns),
          algo->name().c_str(), sc.n, o.exp.sched.c_str(),
          static_cast<unsigned long long>(seed),
          static_cast<unsigned long long>(seed + o.campaignRuns - 1),
          static_cast<unsigned long long>(report.completed),
          static_cast<unsigned long long>(report.replayed),
          static_cast<unsigned long long>(report.retries),
          static_cast<unsigned long long>(report.quarantined));
      std::printf("  outcomes:");
      for (const auto& [name, count] : outcomes) {
        std::printf("  %s=%d", name.c_str(), count);
      }
      std::printf("\n");
      if (journal != nullptr) {
        std::printf("  journal: %s (%zu entries%s)\n",
                    journal->path().c_str(), journal->completedCount(),
                    journal->recoveredTornLine() ? ", recovered torn tail"
                                                 : "");
      }
      for (const sim::QuarantinedItem& q : report.quarantine) {
        std::printf("  quarantined run %zu%s: %s\n", q.index,
                    q.deterministic ? " (deterministic)" : "",
                    q.attempts.empty() ? "?"
                                       : q.attempts.back().message.c_str());
      }
    }
    return report.allCompleted() ? 0 : 1;
  }

  // --trace dispatches on extension: .json = Chrome trace-event spans,
  // anything else = the legacy position CSV.
  const bool chromeTrace =
      o.tracePath.size() >= 5 &&
      o.tracePath.compare(o.tracePath.size() - 5, 5, ".json") == 0;

  // Single runs honor the watchdog flags too: a cycle budget makes a
  // suspected livelock reproducible ("times out at event N" is a fact, not
  // a wall-clock accident).
  sim::Watchdog watchdog(o.watchdogEvents, o.watchdogMs * 1'000'000ull);
  if (o.watchdogEvents != 0 || o.watchdogMs != 0) {
    opts.watchdog = &watchdog;
  }

  sim::Engine engine(start, sc.pattern, *algo, opts);
  sim::Trace trace;
  if (!o.svgPath.empty() || (!o.tracePath.empty() && !chromeTrace)) {
    trace.attach(engine);
  }

  std::unique_ptr<obs::SpanCollector> spans;
  if (chromeTrace) {
    spans = std::make_unique<obs::SpanCollector>();
    spans->install();
  }
  sim::RunResult res;
  try {
    res = engine.run();
  } catch (const sim::WatchdogExpired& e) {
    if (spans != nullptr) obs::SpanCollector::uninstall();
    std::fprintf(stderr, "apf_sim: %s\n", e.what());
    return 3;
  }
  if (spans != nullptr) {
    obs::SpanCollector::uninstall();
    spans->writeChromeTrace(o.tracePath);
  }

  obs::Manifest manifest =
      sim::describeRun(opts, algo->name(), sc.patternLabel, start.size());
  sim::appendResult(manifest, res);
  if (!o.manifestPath.empty()) manifest.write(o.manifestPath);

  if (o.json) {
    std::printf("%s\n", manifest.toJson().c_str());
  } else {
    std::printf(
        "algo=%s n=%zu sched=%s seed=%llu  terminated=%s success=%s "
        "outcome=%s  cycles=%llu bits=%llu distance=%.2f\n",
        algo->name().c_str(), start.size(), o.exp.sched.c_str(),
        static_cast<unsigned long long>(seed),
        res.terminated ? "yes" : "no", res.success ? "yes" : "no",
        sim::outcomeName(res.outcome),
        static_cast<unsigned long long>(res.metrics.cycles),
        static_cast<unsigned long long>(res.metrics.randomBits),
        res.metrics.distance);
    if (opts.fault.active()) {
      std::printf("  faults: crashed=%llu injected=%llu\n",
                  static_cast<unsigned long long>(res.metrics.crashed),
                  static_cast<unsigned long long>(res.metrics.faultsInjected));
    }
    if (!o.quiet) {
      for (const auto& [tag, cnt] : res.metrics.phaseActivations) {
        std::printf("  %-16s %llu\n", core::phaseName(tag),
                    static_cast<unsigned long long>(cnt));
      }
    }
  }

  // --repro-out: capture this run's exact replay coordinates. The case is
  // probed under the fuzzer's safety observer first; when it violates, the
  // violation kind is pinned (and --shrink minimizes the case) so
  // `apf_sim --replay` asserts the same invariant breaks again.
  if (!o.reproOutPath.empty()) {
    sim::ReproCase repro = sim::reproCaseFor(sc, seed);
    const sim::ReplayResult probe = sim::replay(repro, *algo);
    if (probe.violated) {
      repro.violationKind = probe.violationKind;
      if (o.doShrink) {
        const sim::ShrinkResult sr = sim::shrink(repro, *algo);
        std::fprintf(stderr,
                     "apf_sim: shrink: %d probes, removed %zu robots and "
                     "%zu crash entries, cleared %d fault knobs\n",
                     sr.probes, sr.robotsRemoved, sr.crashesRemoved,
                     sr.knobsCleared);
        repro = sr.minimized;
      }
      sim::saveRepro(o.reproOutPath, repro);
      std::fprintf(stderr, "apf_sim: wrote %s (%s, n=%zu, %zu crash entries)\n",
                   o.reproOutPath.c_str(), repro.violationKind.c_str(),
                   repro.start.size(), repro.fault.crashes.size());
    } else {
      sim::saveRepro(o.reproOutPath, repro);
      std::fprintf(stderr,
                   "apf_sim: wrote %s (no safety violation under the replay "
                   "observer; repro records the run coordinates only)\n",
                   o.reproOutPath.c_str());
    }
  }

  if (!o.tracePath.empty() && !chromeTrace) trace.writeCsv(o.tracePath);
  if (!o.svgPath.empty()) {
    io::SvgScene scene;
    for (auto& t : trace.trails()) scene.addTrail(std::move(t));
    scene.addLayer({start, "#999", 0.05, true});
    scene.addLayer({engine.positions(), "#1f77b4", 0.06, false});
    scene.write(o.svgPath);
  }
  return res.success ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "apf_sim: %s\n", e.what());
  return 1;
}
