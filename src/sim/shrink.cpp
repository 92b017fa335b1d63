#include "sim/shrink.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"
#include "obs/recorder.h"
#include "sim/engine.h"

namespace apf::sim {

/// JSON `[[x,y],...]` with exact (shortest round-trip) coordinates.
std::string pointsJson(const config::Configuration& c) {
  std::string out = "[";
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i) out += ',';
    out += '[';
    out += obs::jsonNumber(c[i].x);
    out += ',';
    out += obs::jsonNumber(c[i].y);
    out += ']';
  }
  out += ']';
  return out;
}

config::Configuration pointsFromJson(const obs::JsonNode& node,
                                     const char* what) {
  if (node.kind != obs::JsonNode::Kind::Array) {
    throw std::runtime_error(std::string(what) + " is not an array");
  }
  std::vector<geom::Vec2> pts;
  pts.reserve(node.items.size());
  for (const obs::JsonNode& p : node.items) {
    if (p.kind != obs::JsonNode::Kind::Array || p.items.size() != 2 ||
        p.items[0].kind != obs::JsonNode::Kind::Number ||
        p.items[1].kind != obs::JsonNode::Kind::Number) {
      throw std::runtime_error(std::string(what) +
                               " entries must be [x,y] pairs");
    }
    pts.push_back({p.items[0].number, p.items[1].number});
  }
  return config::Configuration(std::move(pts));
}

ReplayResult replay(const ReproCase& c, const Algorithm& algo) {
  // A fresh start: replay probes run back to back and must not share a
  // lazy SEC cache with the caller's instance.
  config::Configuration start = startFor(c, c.seed);
  const double startSec = start.sec().radius;
  const bool patternHasMultiplicity = c.pattern.hasMultiplicity();

  ReplayResult out;
  Engine eng(std::move(start), c.pattern, algo, engineOptionsFor(c, c.seed));

  // Same invariants as sim/fuzzer.cpp, minus the incremental shortcuts
  // (which are exactness-preserving there, so both observers flag the same
  // runs): collision-freedom of the live robots and the SEC growth bound.
  std::uint64_t lastVersion = 0;
  std::string& violation = out.violation;
  eng.setObserver([&](const Engine& e, std::size_t robot) {
    if (e.configVersion() == lastVersion) return;
    lastVersion = e.configVersion();
    if (out.violated) return;
    const config::Configuration& all = e.positions();
    const std::size_t liveCount = all.size() - e.crashedCount();
    if (liveCount < 2) return;
    std::vector<geom::Vec2> live;
    live.reserve(liveCount);
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (!e.isCrashed(j)) live.push_back(all[j]);
    }
    const geom::Tol tol{1e-9, 1e-9};
    if (!patternHasMultiplicity &&
        config::Configuration(live).hasMultiplicity(tol)) {
      out.violated = true;
      out.violationKind = "collision";
      out.violationEvent = e.metrics().events;
      std::ostringstream os;
      os << "collision: event " << e.metrics().events << ", robot " << robot;
      if (e.crashedCount() > 0) os << " (" << e.crashedCount() << " crashed)";
      violation = os.str();
      return;
    }
    const double growth =
        geom::smallestEnclosingCircle(live).radius / startSec;
    if (growth > FuzzResult::kSecGrowthBound) {
      out.violated = true;
      out.violationKind = "sec_growth";
      out.violationEvent = e.metrics().events;
      std::ostringstream os;
      os << "SEC grew x" << growth << ": event " << e.metrics().events;
      violation = os.str();
    }
  });

  out.run = eng.run();
  return out;
}

ReproCase reproCaseFor(const Scenario& s, std::uint64_t seed) {
  ReproCase c;
  static_cast<Scenario&>(c) = s;
  c.start = startFor(s, seed);
  c.fault = engineOptionsFor(s, seed).fault;
  c.startKind = "points";
  c.n = c.start.size();
  c.crashF = 0;
  c.faultSeedSet = true;
  c.seed = seed;
  return c;
}

ReproCase reproFromFailure(const std::string& algoName,
                           const config::Configuration& start,
                           const config::Configuration& pattern,
                           const FuzzOptions& opts,
                           const FuzzFailure& failure) {
  ReproCase c;
  c.algo = algoName;
  c.n = start.size();
  c.start = start;
  c.pattern = pattern;
  c.seed = failure.seed;
  c.maxEvents = opts.maxEventsPerRun;
  c.delta = opts.delta;
  c.earlyStopProb = failure.earlyStopProb;
  c.multiplicityDetection = opts.multiplicityDetection;
  c.sched = sched::SchedulerKind::Async;  // the fuzzer's scheduler
  c.fault = failure.plan;
  c.violationKind = failure.violationKind;
  return c;
}

std::string toJson(const ReproCase& c) {
  if (c.startKind != "points" || c.crashF != 0 || !c.faultSeedSet) {
    throw std::logic_error(
        "repro: apf.repro.v1 carries only points starts with explicit "
        "crashes and a pinned fault seed");
  }
  obs::JsonObjectWriter w;
  w.field("repro", ReproCase::kSchema);
  w.field("algo", c.algo);
  w.rawField("start", pointsJson(c.start));
  w.rawField("pattern", pointsJson(c.pattern));
  w.field("seed", c.seed);
  w.field("max_events", c.maxEvents);
  w.field("delta", c.delta);
  w.field("early_stop_prob", c.earlyStopProb);
  w.field("multiplicity_detection", c.multiplicityDetection);
  w.field("common_chirality", c.commonChirality);
  w.field("sched", sched::schedulerName(c.sched));
  w.rawField("fault", fault::toJson(c.fault));
  w.field("violation_kind", c.violationKind);
  return w.str();
}

ReproCase reproFromJson(std::string_view text) {
  const auto doc = obs::parseJson(text);
  if (!doc || doc->kind != obs::JsonNode::Kind::Object) {
    throw std::runtime_error("repro: malformed JSON");
  }
  const obs::JsonNode* schema = doc->find("repro");
  if (schema == nullptr || schema->asString() != ReproCase::kSchema) {
    throw std::runtime_error("repro: not an apf.repro.v1 document");
  }
  ReproCase c;
  if (const obs::JsonNode* v = doc->find("algo")) c.algo = v->asString();
  const obs::JsonNode* start = doc->find("start");
  const obs::JsonNode* pattern = doc->find("pattern");
  if (start == nullptr || pattern == nullptr) {
    throw std::runtime_error("repro: missing start/pattern");
  }
  c.start = pointsFromJson(*start, "repro: start");
  c.n = c.start.size();
  c.pattern = pointsFromJson(*pattern, "repro: pattern");
  if (const obs::JsonNode* v = doc->find("seed")) c.seed = v->asU64(c.seed);
  if (const obs::JsonNode* v = doc->find("max_events")) {
    c.maxEvents = v->asU64(c.maxEvents);
  }
  if (const obs::JsonNode* v = doc->find("delta")) c.delta = v->asNumber();
  if (const obs::JsonNode* v = doc->find("early_stop_prob")) {
    c.earlyStopProb = v->asNumber();
  }
  if (const obs::JsonNode* v = doc->find("multiplicity_detection")) {
    c.multiplicityDetection = v->asBool();
  }
  if (const obs::JsonNode* v = doc->find("common_chirality")) {
    c.commonChirality = v->asBool();
  }
  if (const obs::JsonNode* v = doc->find("sched")) {
    const auto kind = sched::schedulerFromName(v->asString());
    if (!kind) {
      throw std::runtime_error("repro: unknown scheduler \"" +
                               v->asString() + "\"");
    }
    c.sched = *kind;
  }
  if (const obs::JsonNode* v = doc->find("fault")) {
    c.fault = fault::planFromJson(*v);
  }
  if (const obs::JsonNode* v = doc->find("violation_kind")) {
    c.violationKind = v->asString();
  }
  return c;
}

ReproCase loadRepro(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("repro: cannot open: " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  return reproFromJson(buf.str());
}

void saveRepro(const std::string& path, const ReproCase& c) {
  obs::createParentDirs(path);
  std::ofstream os(path);
  if (!os) throw std::runtime_error("repro: cannot open for write: " + path);
  os << toJson(c) << '\n';
  os.flush();
  if (os.fail()) throw std::runtime_error("repro: write failed: " + path);
}

namespace {

/// Candidate with robot k removed: drops start[k] and pattern point k
/// (keeping |start| == |pattern|), discards crashes aimed at k, and remaps
/// higher victim indices down by one.
ReproCase withoutRobot(const ReproCase& c, std::size_t k) {
  ReproCase cand = c;
  cand.start = c.start.without(k);
  cand.n = cand.start.size();
  cand.pattern = c.pattern.without(std::min(k, c.pattern.size() - 1));
  cand.fault.crashes.clear();
  for (const fault::CrashFault& f : c.fault.crashes) {
    if (f.robot == k) continue;
    fault::CrashFault g = f;
    if (g.robot > k) --g.robot;
    cand.fault.crashes.push_back(g);
  }
  return cand;
}

}  // namespace

ShrinkResult shrink(const ReproCase& failing, const Algorithm& algo,
                    const ShrinkOptions& opts) {
  ShrinkResult out;
  out.minimized = failing;

  ReplayResult base = replay(out.minimized, algo);
  ++out.probes;
  out.initialReproduced = base.reproduces(out.minimized);
  if (!out.initialReproduced) return out;
  if (out.minimized.violationKind.empty()) {
    // Adopt the observed kind so every later candidate must reproduce THE
    // SAME violation, not merely some violation.
    out.minimized.violationKind = base.violationKind;
  }

  auto tryCandidate = [&](ReproCase cand) {
    if (out.probes >= opts.maxProbes) return false;
    ++out.probes;
    ReplayResult r;
    try {
      r = replay(cand, algo);
    } catch (const std::exception&) {
      return false;  // candidate broke an engine precondition — reject
    }
    if (!r.violated || r.violationKind != out.minimized.violationKind) {
      return false;
    }
    out.minimized = std::move(cand);
    ++out.accepted;
    return true;
  };

  bool progress = true;
  for (int pass = 0; progress && pass < opts.maxPasses; ++pass) {
    progress = false;

    // Robots, biggest payoff first. Keep the index in place after an
    // accepted removal (the next robot slid into slot k).
    for (std::size_t k = 0; out.minimized.start.size() > 2 &&
                            k < out.minimized.start.size();) {
      if (tryCandidate(withoutRobot(out.minimized, k))) {
        progress = true;
        ++out.robotsRemoved;
      } else {
        ++k;
      }
    }

    // Crash-plan entries.
    for (std::size_t k = 0; k < out.minimized.fault.crashes.size();) {
      ReproCase cand = out.minimized;
      cand.fault.crashes.erase(cand.fault.crashes.begin() +
                               static_cast<std::ptrdiff_t>(k));
      if (tryCandidate(std::move(cand))) {
        progress = true;
        ++out.crashesRemoved;
      } else {
        ++k;
      }
    }

    // Probabilistic fault knobs: zero each; for sigma, fall back to
    // halving when zero loses the violation.
    double fault::FaultPlan::* const probKnobs[] = {
        &fault::FaultPlan::omitProb, &fault::FaultPlan::multFlipProb,
        &fault::FaultPlan::dropProb, &fault::FaultPlan::truncProb};
    for (const auto knob : probKnobs) {
      if (out.minimized.fault.*knob <= 0.0) continue;
      ReproCase cand = out.minimized;
      cand.fault.*knob = 0.0;
      if (tryCandidate(std::move(cand))) {
        progress = true;
        ++out.knobsCleared;
      }
    }
    if (out.minimized.fault.noiseSigma > 0.0) {
      ReproCase cand = out.minimized;
      cand.fault.noiseSigma = 0.0;
      if (tryCandidate(std::move(cand))) {
        progress = true;
        ++out.knobsCleared;
      } else if (out.minimized.fault.noiseSigma > 1e-6) {
        cand = out.minimized;
        cand.fault.noiseSigma *= 0.5;
        if (tryCandidate(std::move(cand))) {
          progress = true;
          ++out.knobsCleared;
        }
      }
    }

    // Adversary aggression: the mildest earlyStopProb that still breaks.
    for (const double target : {0.0, 0.1, 0.25, 0.5}) {
      if (target >= out.minimized.earlyStopProb) break;
      ReproCase cand = out.minimized;
      cand.earlyStopProb = target;
      if (tryCandidate(std::move(cand))) {
        progress = true;
        break;
      }
    }
  }

  if (opts.shrinkEventBudget && out.probes < opts.maxProbes) {
    // Clamp the event budget to just past the violation so the final repro
    // replays fast. Margin keeps the budget from sitting exactly on the
    // violation event.
    ++out.probes;
    const ReplayResult r = replay(out.minimized, algo);
    if (r.violated && r.violationEvent + 64 < out.minimized.maxEvents) {
      ReproCase cand = out.minimized;
      cand.maxEvents = r.violationEvent + 64;
      tryCandidate(std::move(cand));
    }
  }
  return out;
}

}  // namespace apf::sim
