#pragma once

/// \file scenario_flags.h
/// The experiment flags apf_sim and apf_estimate share, registered once.
/// They write straight into a sim::Scenario (sim/scenario.h); only --sched
/// and --seed live beside it, because the scheduler's spelling is echoed
/// as given in reports and journal keys, and the seed is not part of a
/// scenario. Each tool then resolves the pattern points with patternOrExit
/// (and any start file), sets the scheduler with schedulerOrExit, and
/// refuses what sim::validate refuses with requireValid.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "io/patterns.h"
#include "sched/scheduler.h"
#include "sim/scenario.h"
#include "algo_select.h"
#include "cli_parse.h"

namespace apf::cli {

struct ScenarioFlags {
  sim::Scenario scenario;
  std::string sched = "async";  ///< --sched as given
  std::uint64_t seed = 1;
};

/// Registers --n --pattern --start --sched --algo --seed --delta
/// --max-events --multiplicity --chirality in the current section.
inline void registerScenarioFlags(ArgParser& args, ScenarioFlags& f,
                                  const char* patternHelp,
                                  const char* seedHelp) {
  sim::Scenario& s = f.scenario;
  args.u64("--n", &s.n, "N", "robots (default 8)", nullptr,
           /*positive=*/true);
  args.str("--pattern", &s.patternLabel, "NAME", patternHelp);
  args.str("--start", &s.startKind, "KIND",
           "random|symmetric (default random)");
  args.str("--sched", &f.sched, "S", "fsync|ssync|async (default async)");
  args.str("--algo", &s.algo, "A",
           std::string(algorithmNames()) + " (default form)");
  args.u64("--seed", &f.seed, "S", seedHelp);
  args.num("--delta", &s.delta, ArgParser::Num::NonNegative, "D",
           "adversary min-move distance (default 0.05)");
  args.u64("--max-events", &s.maxEvents, "N",
           "event cap per run (default 1e6)");
  args.flag("--multiplicity", &s.multiplicityDetection,
            "enable multiplicity detection");
  args.flag("--chirality", &s.commonChirality,
            "give all robots a common chirality");
}

/// The scheduler named `name`; exits 2 when there is none, and for the
/// scripted scheduler, which runs a script the command line cannot supply.
inline sched::SchedulerKind schedulerOrExit(const char* tool,
                                            const std::string& name) {
  const auto kind = sched::schedulerFromName(name);
  if (!kind || *kind == sched::SchedulerKind::Scripted) {
    std::fprintf(stderr, "%s: unknown scheduler: %s (want fsync|ssync|async)\n",
                 tool, name.c_str());
    std::exit(2);
  }
  return *kind;
}

/// io::patternByName(name, n, seed); exits 2 when no pattern has that name.
inline config::Configuration patternOrExit(const char* tool,
                                           const std::string& name,
                                           std::size_t n, std::uint64_t seed) {
  try {
    return io::patternByName(name, n, seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    std::exit(2);
  }
}

/// Exits 2 with validate()'s reason when the scenario names no runnable
/// run.
inline void requireValid(const char* tool, const sim::Scenario& s) {
  if (const std::string why = sim::validate(s); !why.empty()) {
    std::fprintf(stderr, "%s: invalid scenario: %s\n", tool, why.c_str());
    std::exit(2);
  }
}

}  // namespace apf::cli
