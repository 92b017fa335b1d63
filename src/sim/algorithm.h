#pragma once

/// \file algorithm.h
/// The robot-algorithm interface: a pure function from a local snapshot to a
/// movement path, exactly the Compute step of the Look-Compute-Move model.

#include <optional>
#include <string>

#include "config/configuration.h"
#include "geom/path.h"
#include "sched/rng.h"

namespace apf::sim {

/// What a robot observes during Look, in its own local coordinate system
/// (unknown rotation, scale, and possibly reflection relative to the global
/// frame; origin at the robot's own position at Look time).
struct Snapshot {
  /// Positions of all robots (multiplicity points appear repeated).
  config::Configuration robots;
  /// Index of the observing robot's own position in `robots`.
  std::size_t selfIndex = 0;
  /// The target pattern, as this robot received it: an arbitrary similarity
  /// image of the true pattern, in the robot's coordinate system.
  config::Configuration pattern;
  /// Whether this robot can count robots at a multiplicity point. Without
  /// it, a multiplicity point is indistinguishable from a single robot.
  bool multiplicityDetection = false;
};

/// The Compute result: a path to follow (empty path = stay still), plus
/// bookkeeping for the metrics layer.
struct Action {
  geom::Path path;
  /// Which algorithm phase produced this decision (see core/phases.h); used
  /// by metrics only, not by the model.
  int phaseTag = 0;
  /// True when this Compute flipped the election's random bit (set by
  /// psi_RSB); the engine turns it into an election_round telemetry event.
  /// Observability only, not part of the model.
  bool electionRound = false;

  bool isMove() const { return !path.empty(); }

  static Action stay(int tag = 0) { return Action{geom::Path{}, tag}; }
};

/// A mobile-robot algorithm. Implementations must be deterministic given
/// the snapshot and the bits drawn from `rng`, oblivious (no state between
/// calls), and anonymous (no use of robot indices beyond selfIndex), and
/// must draw all their randomness through `rng.bit()` / `rng.uniform()`.
///
/// The engine relies on this contract: when a robot's snapshot repeats,
/// byte for byte, the one of its last Compute, and that Compute stayed
/// without drawing a bit, the engine returns the same stay without calling
/// compute() again (sim/engine.h, StayRecord). An implementation that
/// counts or records its calls therefore sees only the Computes that ran;
/// Metrics::phaseActivations counts them all.
class Algorithm {
 public:
  virtual ~Algorithm() = default;
  virtual Action compute(const Snapshot& snap, sched::RandomSource& rng) const = 0;
  virtual std::string name() const = 0;
};

}  // namespace apf::sim
