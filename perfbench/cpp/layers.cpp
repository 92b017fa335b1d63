/// \file layers.cpp
/// Per-layer measurement from outside the program: the Compute timing
/// decorator (core layer) and the replay of config / geom functions on
/// sampled snapshots.

#include <cstdint>

#include "config/regular.h"
#include "config/shifted.h"
#include "config/similarity.h"
#include "config/symmetry.h"
#include "config/view.h"
#include "core/analysis.h"
#include "core/phases.h"
#include "geom/sec.h"
#include "geom/weber.h"
#include "obs/span.h"
#include "obs/stats.h"
#include "perfbench.h"

namespace perfbench {

using namespace apf;

const std::vector<PhaseName>& reportedPhases() {
  static const std::vector<PhaseName> phases = {
      {core::kRsbShifted, "rsb_shifted"},
      {core::kRsbElection, "rsb_election"},
      {core::kRsbAsymmetric, "rsb_asymmetric"},
      {core::kRsbPartial, "rsb_partial"},
      {core::kDpfCoord, "dpf_coord"},
      {core::kDpfNullAngle, "dpf_null_angle"},
      {core::kDpfFixCircle, "dpf_fix_circle"},
      {core::kDpfClean, "dpf_clean"},
      {core::kDpfLocate, "dpf_locate"},
      {core::kDpfRemove, "dpf_remove"},
      {core::kDpfRotate, "dpf_rotate"},
      {core::kFinalMove, "final_move"},
      {core::kTerminal, "terminal"},
  };
  return phases;
}

sim::Action TimedAlgorithm::compute(const sim::Snapshot& snap,
                                    sched::RandomSource& rng) const {
  obs::ScopedSpan span("compute", "perfbench.core");
  const std::uint64_t t0 = obs::nowNanos();
  sim::Action act = inner_.compute(snap, rng);
  const std::uint64_t dt = obs::nowNanos() - t0;
  span.arg1("phase", act.phaseTag);
  callNanos_.push_back(dt);
  PhaseCost& cost = phases_[act.phaseTag];
  ++cost.calls;
  cost.nanos += dt;
  if (sampleEvery_ != 0 && callNanos_.size() % sampleEvery_ == 0) {
    samples_.push_back(snap);
  }
  return act;
}

namespace {

/// Where the replayed results end up, so the calls cannot be optimised away.
volatile std::uint64_t replaySink = 0;

/// Accumulated cost of one replayed function.
struct Cost {
  std::uint64_t nanos = 0;
  std::uint64_t calls = 0;
};

/// Times one call of `f` under a span; folds a size of its result into
/// `sink`.
template <typename F>
void timeCall(Cost& cost, const char* name, const char* cat,
              std::uint64_t& sink, F&& f) {
  obs::ScopedSpan span(name, cat);
  const std::uint64_t t0 = obs::nowNanos();
  sink += f();
  cost.nanos += obs::nowNanos() - t0;
  ++cost.calls;
}

}  // namespace

std::map<std::string, double> replayLayers(
    const std::vector<sim::Snapshot>& samples) {
  Cost shifted, regular, axes, symmetricity, views, similar, sec, weber;
  std::uint64_t sink = 0;
  for (const sim::Snapshot& snap : samples) {
    // Normalise exactly as Compute does: unit SEC at the origin.
    const core::Analysis a(snap);
    if (!a.ok()) continue;
    const config::Configuration& p = a.P();
    const config::Configuration& f = a.F();
    const geom::Vec2 c = geom::smallestEnclosingCircle(p.span()).center;
    const char* cfg = "perfbench.config";
    const char* geo = "perfbench.geom";
    timeCall(shifted, "shiftedRegularSetOf", cfg, sink, [&] {
      return config::shiftedRegularSetOf(p).has_value() ? 1u : 0u;
    });
    timeCall(regular, "regularSetOf", cfg, sink, [&] {
      return config::regularSetOf(p).has_value() ? 1u : 0u;
    });
    timeCall(axes, "symmetryAxes", cfg, sink,
             [&] { return config::symmetryAxes(p, c).size(); });
    timeCall(symmetricity, "symmetricity", cfg, sink, [&] {
      return static_cast<std::size_t>(config::symmetricity(p, c));
    });
    timeCall(views, "allViews", cfg, sink, [&] {
      return config::allViews(p, c, snap.multiplicityDetection).size();
    });
    timeCall(similar, "similar", cfg, sink,
             [&] { return config::similar(p, f) ? 1u : 0u; });
    timeCall(sec, "smallestEnclosingCircle", geo, sink, [&] {
      return geom::smallestEnclosingCircle(p.span()).radius > 0 ? 1u : 0u;
    });
    timeCall(weber, "weberPoint", geo, sink, [&] {
      return geom::weberPoint(p.span()).x > 0 ? 1u : 0u;
    });
  }
  auto us = [](const Cost& c) {
    return c.calls == 0 ? 0.0
                        : static_cast<double>(c.nanos) / 1e3 /
                              static_cast<double>(c.calls);
  };
  std::map<std::string, double> out = {
      {"config.shifted_set_us", us(shifted)},
      {"config.regular_set_us", us(regular)},
      {"config.symmetry_axes_us", us(axes)},
      {"config.symmetricity_us", us(symmetricity)},
      {"config.views_us", us(views)},
      {"config.similar_us", us(similar)},
      {"geom.sec_us", us(sec)},
      {"geom.weber_us", us(weber)},
  };
  replaySink = sink;
  return out;
}

}  // namespace perfbench
