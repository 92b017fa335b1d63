#include "sim/scenario.h"

#include "config/generator.h"

namespace apf::sim {

std::string validate(const Scenario& s) {
  const std::string n = std::to_string(s.n);
  if (s.n == 0) return "n must be at least 1";
  if (s.pattern.size() != s.n) {
    return "pattern has " + std::to_string(s.pattern.size()) +
           " points but n is " + n;
  }
  if (s.startKind == "symmetric") {
    // Two rings of ρ = n/2 robots each, and a symmetric ring needs ρ >= 2.
    if (s.n % 2 != 0 || s.n < 4) {
      return "a symmetric start needs an even n >= 4, but n is " + n;
    }
  } else if (s.startKind == "points") {
    if (s.start.size() != s.n) {
      return "start has " + std::to_string(s.start.size()) +
             " points but n is " + n;
    }
  } else if (s.startKind != "random") {
    return "unknown start_kind \"" + s.startKind + "\"";
  }
  if (s.crashF < 0) return "crash_f must be non-negative";
  if (s.crashF > 0) {
    if (static_cast<std::size_t>(s.crashF) >= s.n) {
      return "crash_f must leave at least one live robot";
    }
    if (s.crashHorizon == 0) return "crash_horizon must be positive";
    if (!s.fault.crashes.empty()) {
      return "crash_f and explicit crash entries are exclusive";
    }
  }
  if (const auto why = fault::validate(s.fault)) return *why;
  return "";
}

config::Configuration startFor(const Scenario& s, std::uint64_t seed) {
  if (s.startKind == "points") return s.start;
  config::Rng rng(seed + 7);
  if (s.startKind == "symmetric") {
    return config::symmetricConfiguration(static_cast<int>(s.n) / 2, 2, rng);
  }
  return config::randomConfiguration(s.n, rng, 5.0, 0.1);
}

EngineOptions engineOptionsFor(const Scenario& s, std::uint64_t seed) {
  EngineOptions opts;
  opts.seed = seed;
  opts.maxEvents = s.maxEvents;
  opts.multiplicityDetection = s.multiplicityDetection;
  opts.commonChirality = s.commonChirality;
  opts.sched.kind = s.sched;
  opts.sched.delta = s.delta;
  opts.sched.earlyStopProb = s.earlyStopProb;
  opts.fault = s.fault;
  if (!s.faultSeedSet) opts.fault.seed = seed;
  if (s.crashF > 0) {
    opts.fault.crashes = fault::planWithRandomCrashes(
                             s.n, s.crashF, opts.fault.seed, s.crashHorizon)
                             .crashes;
  }
  return opts;
}

}  // namespace apf::sim
