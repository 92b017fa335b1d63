/// \file main.cpp
/// apf_perfbench: runs one workload of the apf benchmark and prints its
/// metrics. The last line of standard output is one JSON object:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
/// With --trace 0 the metrics are the end-to-end ones, measured with no
/// instrumentation; with --trace 1 they are the per-layer ones, from a
/// separate traced pass. See perfbench/README.md.
///
/// Usage: apf_perfbench --workload election|formation|campaign [--seed N]
///          [--seconds S] [--trace 0|1] [--size full|tiny] [--out DIR]
///          [--commit SHA]
/// Exit codes: 0 ok, 1 correctness or determinism failure, 2 bad usage or
/// non-optimised build.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/span.h"
#include "obs/stats.h"
#include "perfbench.h"

namespace {

using namespace perfbench;
namespace fs = std::filesystem;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string outDir = ".bench_build/out";
  std::string commit = "unknown";
};

/// CPUs of the host the reference numbers were taken on. Results from a
/// host with another count are marked as not comparable.
constexpr int kReferenceNproc = 4;

/// Set-up repeats at least kMinSetups times and until kSetupSeconds of
/// set-up time are spent; setup_s is the median. One set-up takes under a
/// millisecond to a few tens of milliseconds, and the host's speed shifts
/// from one half second to the next, so the repeats span several of those
/// shifts.
constexpr int kMinSetups = 5;
constexpr double kSetupSeconds = 1.5;
/// The calibration kernel's median wall time on the reference host, in ms.
/// Timing metrics are reported at the reference host's speed: a wall time
/// is multiplied by this over the kernel's median time around it. The
/// kernel shares no code with the simulator, so the scaling removes most
/// of a shared host's speed drift and nothing a change to the simulator
/// does.
constexpr double kReferenceKernelMs = 0.7;
/// Kernel samples on either side of a run that make its local median.
constexpr std::size_t kKernelWindow = 32;
/// Snapshots the traced pass copies for the replay (about).
constexpr std::uint64_t kReplaySamples = 48;

int usage(const std::string& why) {
  std::fprintf(stderr,
               "apf_perfbench: %s\nusage: apf_perfbench --workload "
               "election|formation|campaign [--seed N] [--seconds S] "
               "[--trace 0|1] [--size full|tiny] [--out DIR] [--commit SHA]\n",
               why.c_str());
  return 2;
}

bool parse(int argc, char** argv, Options& o, std::string& err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") o.workload = v;
      else if (flag == "--seed") o.seed = std::stoull(v);
      else if (flag == "--seconds") o.seconds = std::stod(v);
      else if (flag == "--trace") o.trace = std::stoi(v) != 0;
      else if (flag == "--size") o.tiny = v == "tiny";
      else if (flag == "--out") o.outDir = v;
      else if (flag == "--commit") o.commit = v;
      else {
        err = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      err = "bad value '" + v + "' for " + flag;
      return false;
    }
  }
  if (o.workload != "election" && o.workload != "formation" &&
      o.workload != "campaign") {
    err = "--workload must be election, formation or campaign";
    return false;
  }
  return true;
}

int hostNproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

/// Peak resident set of this process image (VmHWM). Unlike
/// getrusage's ru_maxrss it does not carry over the launcher's peak across
/// exec, so it does not depend on what started the benchmark.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of already sorted values.
template <typename T>
double percentileSorted(const std::vector<T>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

/// The highest percentile with at least ten samples beyond it, or the max
/// when there are ten samples or fewer.
struct Tail {
  double value = 0.0;
  std::string label;
};
Tail tailOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size();
  if (k <= 10) return {v.empty() ? 0.0 : v.back(), "max"};
  char label[32];
  std::snprintf(label, sizeof label, "p%.1f",
                100.0 * static_cast<double>(k - 10) / static_cast<double>(k));
  return {v[k - 11], label};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& line) { notes_.push_back(line); }

  /// Human-readable lines, then the JSON result as the last line.
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const {
    for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %20.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("%s\n", json(correct, attempted, failed).c_str());
    std::fflush(stdout);
  }

  std::string json(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char num[40];
      std::snprintf(num, sizeof num, "%.17g", metrics_[i].value);
      if (i > 0) out += ", ";
      out += "\"" + metrics_[i].name + "\": {\"value\": " + num +
             ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Thrown for a failed correctness or determinism check.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

bool sameInputs(const Workload& a, const Workload& b) {
  if (a.inputs.size() != b.inputs.size() || a.specs.size() != b.specs.size())
    return false;
  for (std::size_t i = 0; i < a.inputs.size(); ++i) {
    if (a.inputs[i].start.points() != b.inputs[i].start.points() ||
        a.inputs[i].pattern.points() != b.inputs[i].pattern.points() ||
        a.inputs[i].engineSeed != b.inputs[i].engineSeed)
      return false;
  }
  for (std::size_t i = 0; i < a.specs.size(); ++i) {
    if (apf::sim::toJson(a.specs[i]) != apf::sim::toJson(b.specs[i]))
      return false;
  }
  return true;
}

/// Fails when two passes of the same inputs disagree on any exact count
/// (or, for the campaign, on any payload byte).
void requireSameCounts(const PassResult& a, const PassResult& b,
                       const std::string& what) {
  if (a.runs.size() != b.runs.size()) {
    throw CheckFailure(what + ": run counts differ");
  }
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    if (!(a.runs[i].counts == b.runs[i].counts) ||
        a.runs[i].payload != b.runs[i].payload) {
      throw CheckFailure(what + ": run " + std::to_string(i) +
                         " differs in cycles/events/bits or payload");
    }
  }
}

/// Applies the correctness gate to one pass; returns the unmet goals.
/// Runs that end in safety_violation or stall are unmet goals; a run that
/// reports success but fails the check, and a quarantined run, fail the
/// command.
std::uint64_t gate(const Workload& w, const PassResult& pass) {
  std::uint64_t unmet = 0;
  for (std::size_t i = 0; i < pass.runs.size(); ++i) {
    const RunRecord& r = pass.runs[i];
    if (r.checkFailed) {
      throw CheckFailure(w.name + " run " + std::to_string(i) +
                         " reports success but fails the check");
    }
    if (!r.goalMet) ++unmet;
  }
  if (w.kind == Kind::Campaign && pass.supervisor.quarantined != 0) {
    throw CheckFailure("campaign: " +
                       std::to_string(pass.supervisor.quarantined) +
                       " runs quarantined");
  }
  return unmet;
}

/// "17 (stalled)" for a serial run, "spec 74 run 4 (safety_violation)" for
/// a campaign run.
std::string describeRun(const Workload& w, const RunRecord& r,
                        std::size_t index) {
  const std::string where =
      w.kind == Kind::Campaign
          ? "spec " + std::to_string(r.spec) + " run " + std::to_string(r.run)
          : std::to_string(index);
  return where + " (" + r.outcome + ")";
}

RunCounts totals(const PassResult& pass) {
  RunCounts t;
  for (const RunRecord& r : pass.runs) {
    t.cycles += r.counts.cycles;
    t.events += r.counts.events;
    t.bits += r.counts.bits;
  }
  return t;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// The host's speed relative to the reference host's around run `i` of a
/// calibrated pass: the median kernel time of the runs within
/// kKernelWindow of it over kReferenceKernelMs.
double slowdownAt(const PassResult& p, std::size_t i) {
  const std::size_t lo = i > kKernelWindow ? i - kKernelWindow : 0;
  const std::size_t hi = std::min(p.runs.size(), i + kKernelWindow + 1);
  std::vector<double> kernel;
  for (std::size_t j = lo; j < hi; ++j) kernel.push_back(p.runs[j].kernelMs);
  return median(kernel) / kReferenceKernelMs;
}

/// End-to-end pass: no decorator, no spans, one thread, the calibration
/// kernel before every run; passes repeat until the measuring window is
/// spent.
Outcome measureEndToEnd(const Workload& w, const Options& o, Report& rep) {
  // At least one pass; another only when it fits in what is left of the
  // window, judged by the pass before it.
  std::vector<PassResult> passes;
  const std::uint64_t t0 = apf::obs::nowNanos();
  do {
    passes.push_back(runPass(w, nullptr, 1, nullptr, /*calibrate=*/true));
  } while (static_cast<double>(apf::obs::nowNanos() - t0) / 1e9 +
               passes.back().wallMs / 1e3 <=
           o.seconds);

  Outcome out;
  for (const PassResult& p : passes) {
    requireSameCounts(passes.front(), p, "repeated pass");
    out.attempted += p.runs.size();
    out.failed += gate(w, p);
  }
  if (w.kind == Kind::Campaign) {
    // The payloads carry no positions: re-execute every run to check the
    // final configuration of each one that reports success.
    replayCampaignDirect(w, passes.front());
    rep.note("check: all " + std::to_string(passes.front().runs.size()) +
             " campaign runs re-executed through sim::Engine match their "
             "payloads; every success is formed and quiescent");
  }

  const PassResult& first = passes.front();
  const RunCounts all = totals(first);

  // The per-run metrics cover the runs that met their goal. The others
  // count in success_rate and are listed below: a stalled run ends at the
  // event cap, so its cost is set by the cap rather than by the
  // simulator's speed, and one such run can hold a fifth of a pass's
  // cycles. Per-run time is each run's median over passes of its wall
  // time at the reference host's speed; the workload's time is the sum of
  // those.
  std::vector<double> perRunMs;
  std::vector<double> slowdowns;
  std::vector<double> rawRunMs;
  double workloadMs = 0.0;
  RunCounts t;
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    if (!first.runs[i].goalMet) continue;
    std::vector<double> samples;
    std::vector<double> raw;
    for (const PassResult& p : passes) {
      const double slowdown = slowdownAt(p, i);
      samples.push_back(p.runs[i].wallMs / slowdown);
      raw.push_back(p.runs[i].wallMs);
      slowdowns.push_back(slowdown);
    }
    perRunMs.push_back(median(samples));
    rawRunMs.push_back(median(raw));
    workloadMs += perRunMs.back();
    t.cycles += first.runs[i].counts.cycles;
    t.events += first.runs[i].counts.events;
  }
  const double runs = static_cast<double>(perRunMs.size());
  const Tail tail = tailOf(perRunMs);

  char line[160];
  std::snprintf(line, sizeof line,
                "passes: %zu x %zu runs; run_ms_tail is %s of the %zu runs "
                "that met their goal",
                passes.size(), first.runs.size(), tail.label.c_str(),
                perRunMs.size());
  rep.note(line);
  std::uint64_t longest = 0;
  std::string missed;
  for (std::size_t i = 0; i < first.runs.size(); ++i) {
    longest = std::max(longest, first.runs[i].counts.events);
    if (first.runs[i].goalMet) continue;
    missed += (missed.empty() ? " " : ", ") + describeRun(w, first.runs[i], i);
  }
  std::snprintf(line, sizeof line,
                "events: longest run %llu of the %llu cap; runs that missed "
                "their goal:",
                static_cast<unsigned long long>(longest),
                static_cast<unsigned long long>(w.sizes.maxEvents));
  rep.note(line + (missed.empty() ? std::string(" none") : missed));
  std::snprintf(line, sizeof line,
                "exact: random_bits_per_cycle %.17g (bits %llu, cycles %llu)",
                ratio(static_cast<double>(all.bits),
                      static_cast<double>(all.cycles)),
                static_cast<unsigned long long>(all.bits),
                static_cast<unsigned long long>(all.cycles));
  rep.note(line);
  std::snprintf(line, sizeof line,
                "speed: host at %.4g x the reference host's kernel time "
                "(median over runs); unscaled run_ms_p50 %.6g ms",
                median(slowdowns), median(rawRunMs));
  rep.note(line);

  rep.add("run_ms_p50", median(perRunMs), "ms");
  rep.add("run_ms_tail", tail.value, "ms");
  rep.add("cycle_us", ratio(workloadMs * 1e3, static_cast<double>(t.cycles)),
          "us");
  rep.add("runs_per_s", ratio(runs, workloadMs / 1e3), "1/s");
  rep.add("success_rate",
          ratio(static_cast<double>(out.attempted - out.failed),
                static_cast<double>(out.attempted)),
          "ratio");
  rep.add("cycles_per_run", ratio(static_cast<double>(t.cycles), runs),
          "count");
  rep.add("events_per_run", ratio(static_cast<double>(t.events), runs),
          "count");
  return out;
}

/// The layer measurement covers the first half of the workload's inputs
/// (serial) or specs (campaign), so that its untraced reference pass, the
/// traced pass and the replay fit one window. Tiny self-test workloads are
/// kept whole.
Workload layerSubset(Workload w, bool tiny) {
  if (tiny) return w;
  if (w.kind == Kind::Campaign) {
    w.specs.resize(std::max<std::size_t>(1, w.specs.size() / 2));
  } else {
    w.inputs.resize(std::max<std::size_t>(1, w.inputs.size() / 2));
  }
  return w;
}

/// Traced pass: one untraced pass, one decorated pass (spans on its first
/// run), the replay of config / geom functions on sampled snapshots, and
/// the determinism cross-checks between the two passes.
Outcome measureLayers(const Workload& whole, const Options& o, Report& rep) {
  const Workload w = layerSubset(whole, o.tiny);
  const PassResult plain = runPass(w, nullptr, w.sizes.jobs);
  const RunCounts t = totals(plain);
  const std::uint64_t every =
      std::max<std::uint64_t>(1, t.cycles / (o.tiny ? 8 : kReplaySamples));

  TimedAlgorithm timed(workloadAlgorithm(w), every);
  apf::obs::SpanCollector collector;
  // The campaign's traced pass runs at one thread: its payloads must then
  // match the pool's byte for byte.
  const PassResult traced = runPass(w, &timed, 1, &collector);
  requireSameCounts(plain, traced, "traced pass vs untraced pass");
  rep.note("determinism: the traced pass reproduces all " +
           std::to_string(traced.runs.size()) +
           " runs' cycles, events and random bits" +
           (w.kind == Kind::Campaign
                ? " and its payloads byte for byte at one thread"
                : ""));

  collector.install();
  const std::map<std::string, double> replay = replayLayers(timed.samples());
  apf::obs::SpanCollector::uninstall();
  fs::create_directories(o.outDir);
  const std::string tracePath = o.outDir + "/" + w.name + ".trace.json";
  collector.writeChromeTrace(tracePath);
  rep.note("chrome trace: " + tracePath + " (" +
           std::to_string(timed.samples().size()) + " replay samples)");

  Outcome out;
  out.attempted = plain.runs.size() + traced.runs.size();
  out.failed = gate(w, plain) + gate(w, traced);

  const EngineCounters counters =
      w.kind == Kind::Campaign ? replayCampaignDirect(w, plain)
                               : traced.counters;
  const double runs = static_cast<double>(traced.runs.size());

  std::vector<std::uint64_t> calls = timed.callNanos();
  std::sort(calls.begin(), calls.end());
  double computeMs = 0.0;
  for (const std::uint64_t ns : calls) {
    computeMs += static_cast<double>(ns) / 1e6;
  }
  rep.add("core.compute_us_p50", percentileSorted(calls, 50) / 1e3, "us");
  rep.add("core.compute_us_p99", percentileSorted(calls, 99) / 1e3, "us");
  rep.add("core.compute_share", ratio(computeMs, traced.wallMs), "ratio");
  for (const PhaseName& ph : reportedPhases()) {
    const auto it = timed.phases().find(ph.tag);
    const TimedAlgorithm::PhaseCost cost =
        it == timed.phases().end() ? TimedAlgorithm::PhaseCost{} : it->second;
    const double ns = static_cast<double>(cost.nanos);
    const double n = static_cast<double>(cost.calls);
    const std::string base = std::string("core.phase.") + ph.name;
    rep.add(base + ".ms_per_run", ns / 1e6 / runs, "ms");
    rep.add(base + ".calls_per_run", n / runs, "count");
  }
  for (const auto& [name, us] : replay) rep.add(name, us, "us");
  rep.add("geom.sec_cache_hit_ratio",
          ratio(static_cast<double>(counters.secHits),
                static_cast<double>(counters.secHits + counters.secMisses)),
          "ratio");
  rep.add("geom.weber_cache_hit_ratio",
          ratio(static_cast<double>(counters.weberHits),
                static_cast<double>(counters.weberHits +
                                    counters.weberMisses)),
          "ratio");
  rep.add("sim.engine_us_per_event",
          (traced.wallMs - computeMs) * 1e3 / static_cast<double>(t.events),
          "us");
  rep.add("sim.events_per_cycle",
          ratio(static_cast<double>(t.events), static_cast<double>(t.cycles)),
          "ratio");
  rep.add("fault.injected_per_event",
          ratio(static_cast<double>(counters.faults),
                static_cast<double>(counters.events)),
          "ratio");

  apf::sim::CampaignStats pool;
  for (const auto& s : plain.campaignStats) {
    pool.workerBusyNanos += s.workerBusyNanos;
    pool.workerIdleNanos += s.workerIdleNanos;
    pool.mergeStallNanos += s.mergeStallNanos;
  }
  rep.add("campaign.utilization", pool.utilization(), "ratio");
  rep.add("campaign.worker_idle_s",
          static_cast<double>(pool.workerIdleNanos) / 1e9, "s");
  rep.add("campaign.merge_stall_ms",
          static_cast<double>(pool.mergeStallNanos) / 1e6, "ms");
  rep.add("campaign.journal_bytes_per_run",
          w.kind == Kind::Campaign
              ? static_cast<double>(plain.journalBytes) / runs
              : 0.0,
          "B");
  rep.add("campaign.retries", static_cast<double>(plain.supervisor.retries),
          "count");
  rep.add("campaign.quarantined",
          static_cast<double>(plain.supervisor.quarantined), "count");
  // The campaign's traced pass runs at one thread, so its base is the
  // pool's summed worker time rather than the pool's wall time.
  const double plainMs =
      w.kind == Kind::Campaign
          ? static_cast<double>(pool.workerBusyNanos) / 1e6
          : plain.wallMs;
  rep.add("trace.overhead", ratio(traced.wallMs, plainMs), "ratio");
  rep.add("random_bits_per_cycle",
          ratio(static_cast<double>(t.bits), static_cast<double>(t.cycles)),
          "ratio");
  return out;
}

void writeResultFile(const Options& o, const std::string& host,
                     const Report& rep, const std::string& json) {
  fs::create_directories(o.outDir);
  const std::string path = o.outDir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << "{\"host\": " << host << ", \"notes\": [";
  for (std::size_t i = 0; i < rep.notes().size(); ++i) {
    std::string quoted;
    for (const char c : rep.notes()[i]) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    f << (i ? ", " : "") << "\"" << quoted << "\"";
  }
  f << "], \"result\": " << json << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string err;
  if (!parse(argc, argv, o, err)) return usage(err);

#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "apf_perfbench: refusing to measure a non-optimised build "
               "(build type '%s'); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif

  const int nproc = hostNproc();
  const bool comparable = nproc == kReferenceNproc;
  const std::string host =
      "{\"nproc\": " + std::to_string(nproc) + ", \"compiler\": \"" +
      __VERSION__ + "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
      "\", \"commit\": \"" + o.commit + "\", \"comparable\": " +
      (comparable ? "true" : "false") + "}";

  Report rep;
  rep.note("host: " + host);
  if (!comparable) {
    rep.note("NOT COMPARABLE: nproc " + std::to_string(nproc) +
             " differs from the reference host's " +
             std::to_string(kReferenceNproc));
  }

  Outcome out;
  bool correct = true;
  try {
    // Set-up is repeated; its median is setup_s, and every repeat must
    // build the same inputs. A calibration kernel sample is taken before
    // the set-ups that start each sixteenth of the set-up time.
    std::vector<double> setups;
    std::vector<double> setupKernels;
    double spent = 0.0;
    Workload w;
    while (static_cast<int>(setups.size()) < (o.tiny ? 2 : kMinSetups) ||
           (!o.tiny && spent < kSetupSeconds)) {
      if (spent >= kSetupSeconds / 16 * static_cast<double>(
                                             setupKernels.size())) {
        setupKernels.push_back(calibrationKernelMs());
      }
      const std::uint64_t t0 = apf::obs::nowNanos();
      Workload again = setupWorkload(o.workload, o.seed, o.tiny, o.outDir);
      setups.push_back(static_cast<double>(apf::obs::nowNanos() - t0) / 1e9);
      spent += setups.back();
      if (setups.size() == 1) {
        w = std::move(again);
      } else if (!sameInputs(w, again)) {
        throw CheckFailure("set-up is not deterministic in the seed");
      }
    }
    rep.note("workload: " + w.name + " seed " + std::to_string(o.seed) +
             ", n=" + std::to_string(w.sizes.n) + ", " +
             std::to_string(w.totalRuns()) + " runs per pass" +
             (o.trace ? ", traced" : ""));
    if (o.trace) {
      out = measureLayers(w, o, rep);
    } else {
      out = measureEndToEnd(w, o, rep);
      rep.note("setup: median of " + std::to_string(setups.size()) +
               " set-ups, " + std::to_string(median(setups)) +
               " s unscaled");
      rep.add("setup_s",
              median(setups) * kReferenceKernelMs / median(setupKernels),
              "s");
      rep.add("peak_rss_mb", peakRssMb(), "MB");
    }
    if (!w.journalDir.empty()) fs::remove_all(w.journalDir);
  } catch (const std::exception& e) {
    // Failed gates, divergent passes or replays, and failed set-up.
    std::fprintf(stderr, "apf_perfbench: CHECK FAILED: %s\n", e.what());
    correct = false;
  }

  rep.print(correct, std::max<std::uint64_t>(out.attempted, 1), out.failed);
  writeResultFile(o, host, rep, rep.json(correct, out.attempted, out.failed));
  return correct ? 0 : 1;
}
