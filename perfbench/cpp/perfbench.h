#pragma once

/// \file perfbench.h
/// The apf benchmark: three closed-loop workloads (election, formation,
/// campaign) timed end to end, plus a separately traced pass that splits the
/// cost over the simulator's layers. Only public entry points are called:
/// sim::Engine, sim::runShard, the core algorithms, core::Analysis,
/// config::* and geom::*. See perfbench/README.md for the metric catalogue.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "config/configuration.h"
#include "obs/span.h"
#include "sim/algorithm.h"
#include "sim/campaign.h"
#include "sim/metrics.h"
#include "sim/shard.h"
#include "sim/supervisor.h"

namespace perfbench {

enum class Kind { Election, Formation, Campaign };

/// Input sizes of one workload. `tiny` sizes exist for the self-test only.
struct Sizes {
  std::size_t n = 0;     ///< robots per run
  std::size_t runs = 0;  ///< distinct runs per pass
  int rho = 0;           ///< election: rotational symmetricity of the starts
  std::size_t specs = 0; ///< campaign: patterns, one ShardSpec each
  int jobs = 1;          ///< campaign: pool width of the traced mode's
                         ///< untraced pass (the timed pass runs at one)
  /// Scheduler-event cap per run, about 30x the longest run seen while
  /// sizing: a run that reaches it has stalled, misses its goal and counts
  /// as failed, and the cap bounds what a stalled run can cost.
  std::uint64_t maxEvents = 0;
};

/// One serial run: what the engine receives, and nothing else.
struct SerialInput {
  apf::config::Configuration start;
  apf::config::Configuration pattern;
  std::uint64_t engineSeed = 0;
};

/// Everything set-up builds before the first run.
struct Workload {
  Kind kind = Kind::Election;
  std::string name;
  Sizes sizes;
  std::vector<SerialInput> inputs;         ///< election, formation
  std::vector<apf::sim::ShardSpec> specs;  ///< campaign
  std::string journalDir;                  ///< campaign
  std::size_t totalRuns() const;
};

/// Exact, machine-independent counts of one run. A change that moves them
/// changed the simulation, not its speed.
struct RunCounts {
  std::uint64_t cycles = 0;
  std::uint64_t events = 0;
  std::uint64_t bits = 0;
  bool operator==(const RunCounts&) const = default;
};

/// One finished run as the benchmark sees it.
struct RunRecord {
  RunCounts counts;
  /// Wall time of the run; 0 for a campaign run on the pool, which does
  /// not time single runs.
  double wallMs = 0.0;
  /// Calibrated passes only: the calibration kernel's wall time, taken
  /// just before the run.
  double kernelMs = 0.0;
  /// Reached its goal and passed the benchmark's own check.
  bool goalMet = false;
  /// Reported success but failed the check: a correctness failure.
  bool checkFailed = false;
  /// How the run ended (sim::outcomeName), for the list of missed goals.
  std::string outcome;
  /// Campaign only: the spec and the run index within it.
  std::size_t spec = 0;
  std::uint64_t run = 0;
  /// Campaign only: the runShard payload, compared byte for byte.
  std::string payload;
};

/// Geometry-cache and fault counters read from RunResult::metrics.
struct EngineCounters {
  std::uint64_t events = 0;
  std::uint64_t faults = 0;
  std::uint64_t secHits = 0;
  std::uint64_t secMisses = 0;
  std::uint64_t weberHits = 0;
  std::uint64_t weberMisses = 0;
  void add(const apf::sim::Metrics& m);
};

/// One pass over every run of a workload.
struct PassResult {
  std::vector<RunRecord> runs;  ///< indexed like Workload runs
  /// Serial: the runs' timed wall times summed (the per-run checks are not
  /// timed). Campaign: the pass's wall time.
  double wallMs = 0.0;
  /// Serial workloads: engine counters summed over the pass's runs.
  EngineCounters counters;
  /// Campaign only: per-spec pool telemetry (pool passes only), supervisor
  /// report and journal size.
  std::vector<apf::sim::CampaignStats> campaignStats;
  apf::sim::SupervisorReport supervisor;
  std::uint64_t journalBytes = 0;
};

/// Builds a workload's inputs from the seed. Deterministic in `seed`.
/// Campaign journals go under `workDir`.
Workload setupWorkload(const std::string& name, std::uint64_t seed,
                       bool tiny, const std::string& workDir);

/// Runs every run of the workload once. `algo` overrides the workload's
/// own algorithm (the timing decorator). `jobs` is the campaign's thread
/// count: above one each spec runs whole on the pool; at one each run is
/// its own timed runShard slice. When `traceFirst` is set it is installed
/// as the span collector for the first run (serial) or first spec
/// (campaign) only, which keeps the Chrome trace small. When `calibrate`
/// is set the calibration kernel runs before every run and its time is
/// recorded in RunRecord::kernelMs.
PassResult runPass(const Workload& w, const apf::sim::Algorithm* algo,
                   int jobs, apf::obs::SpanCollector* traceFirst = nullptr,
                   bool calibrate = false);

/// Runs the calibration kernel once and returns its wall time in ms. The
/// kernel is a fixed floating-point and sorting computation that shares no
/// code with the simulator, so its time tracks only the host's speed.
double calibrationKernelMs();

/// The workload's own algorithm: psi_RSB alone for election, the full
/// formPattern for formation and campaign.
const apf::sim::Algorithm& workloadAlgorithm(const Workload& w);

// ------------------------------------------------------------ layers ----

/// The phase tags reported per phase, with their metric names.
struct PhaseName {
  int tag;
  const char* name;
};
const std::vector<PhaseName>& reportedPhases();

/// Timing decorator around sim::Algorithm::compute: times each call, keys
/// it by the returned phase tag, and copies every `sampleEvery`-th
/// snapshot for the replay. It draws no randomness and returns the inner
/// action unchanged, so a decorated run is bit-identical to a plain one.
/// Single-threaded use only (the traced pass runs at one thread).
class TimedAlgorithm final : public apf::sim::Algorithm {
 public:
  TimedAlgorithm(const apf::sim::Algorithm& inner, std::uint64_t sampleEvery)
      : inner_(inner), sampleEvery_(sampleEvery) {}
  apf::sim::Action compute(const apf::sim::Snapshot& snap,
                           apf::sched::RandomSource& rng) const override;
  std::string name() const override { return inner_.name(); }

  struct PhaseCost {
    std::uint64_t calls = 0;
    std::uint64_t nanos = 0;
  };
  const std::vector<std::uint64_t>& callNanos() const { return callNanos_; }
  const std::map<int, PhaseCost>& phases() const { return phases_; }
  const std::vector<apf::sim::Snapshot>& samples() const { return samples_; }

 private:
  const apf::sim::Algorithm& inner_;
  std::uint64_t sampleEvery_;
  mutable std::vector<std::uint64_t> callNanos_;
  mutable std::map<int, PhaseCost> phases_;
  mutable std::vector<apf::sim::Snapshot> samples_;
};

/// Cost per call of the config / geom functions, replayed on sampled
/// snapshots after the traced pass. Keys are metric names
/// (config.shifted_set_us, ..., geom.weber_us); values are microseconds.
std::map<std::string, double> replayLayers(
    const std::vector<apf::sim::Snapshot>& samples);

/// Campaign: re-executes every run of every spec directly through
/// sim::Engine with the spec's documented per-run options, checks each
/// run's payload fields against the runShard pass and, for a run that
/// reports success, its final configuration (formed and quiescent), and
/// returns the engine counters the payloads do not carry. The runs are
/// split over min(4, nproc) threads. Throws on a mismatch or a failed
/// check.
EngineCounters replayCampaignDirect(const Workload& w,
                                    const PassResult& pooled);

}  // namespace perfbench
