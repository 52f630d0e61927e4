// Shared vocabulary of the benchmark program: options, correctness checks,
// one repetition's result, the per-layer metric table, and the four
// workloads (fabric.cpp, incident.cpp, paper.cpp).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "dcdl/common/rng.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the artifacts a repetition writes (incident exports, the
  /// paper sweep's result files); each repetition gets a fresh ArtifactDir.
  /// The traced run's span files go to the run's own directory.
  std::string out_dir = ".";
  int nproc = 1;
};

/// The range an observed number must lie in.
struct Range {
  double lo;
  double hi;
};
inline constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Range exactly(double v) { return {v, v}; }
constexpr Range at_least(double v) { return {v, kInf}; }
constexpr Range at_most(double v) { return {-kInf, v}; }

/// Correctness checks of one repetition: each compares an observed number
/// with the range the workload expects. Every workload also keeps a second
/// set of expectations, taken from a different configuration or outcome
/// (a flipped verdict table, another fabric's recorded numbers, the other
/// forensic trigger); the self-test runs a repetition against those and
/// requires every check to fail there.
class Checks {
 public:
  explicit Checks(bool wrong = false) : wrong_(wrong) {}

  /// True when the workload must check against its wrong expectations.
  bool wrong() const { return wrong_; }
  void expect(const std::string& name, double observed, Range want);

  const std::vector<std::string>& failures() const { return failures_; }
  /// Names of the checks that held.
  const std::vector<std::string>& held() const { return held_; }
  int count() const { return count_; }

 private:
  bool wrong_;
  int count_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::string> held_;
};

/// A fresh, empty `<parent>/rep` directory for one repetition's artifacts,
/// removed again on destruction, after the repetition's timed phase. New
/// files, rather than the last repetition's truncated and rewritten, keep
/// ext4 from flushing them to disk inside the timed phase (it does so for a
/// file truncated and rewritten, on close).
class ArtifactDir {
 public:
  explicit ArtifactDir(const std::string& parent);
  ~ArtifactDir();
  ArtifactDir(const ArtifactDir&) = delete;
  ArtifactDir& operator=(const ArtifactDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Per-layer metrics of a traced run, with the reason for any metric a
/// workload does not exercise (reported as 0).
struct Layers {
  std::map<std::string, double> value;
  std::map<std::string, std::string> note;
  /// The engine Profiler's span table of the last traced repetition.
  std::string profile;
  void set(const std::string& name, double v) { value[name] = v; }
  void skip(const std::string& name, const std::string& why) {
    value[name] = 0;
    note[name] = why;
  }
};

/// One repetition of a workload's fixed work.
struct Rep {
  double setup_s = 0;  ///< building the ready-to-run instance
  double phase_s = 0;  ///< the timed phase
  double sim_ms = 0;   ///< simulated ms of the fixed horizon(s)
  std::uint64_t runs = 1;         ///< simulation runs completed
  std::uint64_t failed_runs = 0;  ///< runs whose correctness check failed
  std::vector<std::string> failures;
  /// Fixed-work fingerprint: repetitions of one seed must agree on both.
  std::uint64_t events = 0;
  std::string verdicts;
  /// Digest of the simulated statistics, printed once per run.
  std::string digest;
};

/// A workload: one repetition, and the outside-in extras of the traced run.
/// `layers` is non-null on traced repetitions, which attach counting
/// observers and fill the per-layer values they measure.
struct Workload {
  const char* name;
  Rep (*rep)(const Options&, Tracer&, Checks&, Layers*);
  void (*extras)(const Options&, Tracer&, Layers&);
  /// Self-test: identical inputs and sim.events for one seed on a short
  /// horizon. Returns an empty string on success.
  std::string (*determinism)(std::uint64_t seed);
};

extern const Workload kFabric;
extern const Workload kHybrid;
extern const Workload kIncident;
extern const Workload kPaper;

// --- helpers shared by the workloads ------------------------------------

double median(std::vector<double> v);

/// A uniformly random cyclic permutation of 0..n-1 (Sattolo's algorithm):
/// no element maps to itself, so no flow is sent to its own source.
std::vector<std::size_t> random_derangement(std::size_t n, dcdl::Rng& rng);

/// Per-flow seed derived from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Holds `pending` events in a Simulator and replays schedule/fire cycles
/// (the hold model) for about `events` events; returns ns per event. The
/// scheduler cost at the workload's heap high-water, without devices.
double hold_model_ns_per_event(std::size_t pending, std::uint64_t events,
                               std::uint64_t seed);

/// Seconds one run of the host-speed calibration kernel took
/// (calibrate.cpp). Wall seconds * kReferenceKernelS / this are reference
/// seconds: what the same work would take in the host state in which the
/// kernel takes kReferenceKernelS.
double calibration_kernel_seconds();
inline constexpr double kReferenceKernelS = 0.1;

/// Sets the peak resident set (VmHWM) back to the current resident set.
void reset_peak_rss();
/// Peak resident set (VmHWM) since start or the last reset_peak_rss().
double peak_rss_mib();

}  // namespace perfbench
