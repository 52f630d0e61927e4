// perfbench — the dcdl benchmark program.
//
//   perfbench --workload <fabric|hybrid|incident|paper> --seed N
//             --seconds S --trace <0|1> --out DIR
//   perfbench --selftest
//
// A run repeats its workload's fixed work — a fixed simulated horizon, or
// a fixed run list — until S seconds have passed (at least three
// repetitions), each repetition on this one thread, built anew, writing its
// artifacts into a fresh directory. Every repetition of a seed must agree
// on sim.events and on every verdict (the fixed-work guard); a repetition
// that does not, or whose correctness checks fail, counts as a failed
// operation. End-to-end metrics are medians over the repetitions of
// per-repetition totals (work / time of its timed phase), never percentiles
// over unlike runs. Times are in reference seconds: wall seconds scaled by
// the host-speed calibration kernel timed around the repetition
// (calibrate.cpp); the wall-clock medians are printed beside them.
//
// --trace 1 alternates untraced and traced repetitions (spans around every
// call into a layer, the engine's own Profiler installed, counting
// observers attached), then runs the workload's outside-in extras and
// writes DIR/<workload>-seed<N>.spans.json (Perfetto trace_event JSON) and
// DIR/<workload>-seed<N>.layers.txt (the per-layer table). Its numbers are
// per-layer only; end-to-end numbers never come from a traced run.
//
// The last stdout line is one JSON object: the repetitions, operations
// attempted and failed, the failure messages, and the metrics with units.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "dcdl/sim/simulator.hpp"

namespace perfbench {

// --- shared helpers ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<std::size_t> random_derangement(std::size_t n, dcdl::Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(p[i], p[rng.uniform(i)]);
  }
  return p;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

/// One event of the hold model: fires, then schedules its successor an
/// exponential gap later, so the heap stays at its initial size.
struct HoldEvent {
  dcdl::Simulator* sim;
  dcdl::Rng* rng;
  std::uint64_t* left;
  void operator()() const {
    if (--*left == 0) {
      sim->stop();
      return;
    }
    sim->schedule_in(
        dcdl::Time{1 + static_cast<std::int64_t>(rng->exponential(1e6))},
        *this);
  }
};

}  // namespace

double hold_model_ns_per_event(std::size_t pending, std::uint64_t events,
                               std::uint64_t seed) {
  dcdl::Simulator sim;
  dcdl::Rng rng(seed);
  std::uint64_t left = events;
  for (std::size_t i = 0; i < std::max<std::size_t>(pending, 1); ++i) {
    sim.schedule_at(
        dcdl::Time{1 + static_cast<std::int64_t>(rng.exponential(1e6))},
        HoldEvent{&sim, &rng, &left});
  }
  const std::int64_t t0 = now_ns();
  sim.run();
  return static_cast<double>(now_ns() - t0) /
         static_cast<double>(events - left);
}

void Checks::expect(const std::string& name, double observed, Range want) {
  ++count_;
  if (observed >= want.lo && observed <= want.hi) {
    held_.push_back(name);
    return;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s: observed %.9g, expected [%.9g, %.9g]",
                name.c_str(), observed, want.lo, want.hi);
  failures_.push_back(buf);
}

ArtifactDir::ArtifactDir(const std::string& parent) : path_(parent + "/rep") {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directory(path_);
}

ArtifactDir::~ArtifactDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

namespace {

const Workload* const kWorkloads[] = {&kFabric, &kHybrid, &kIncident,
                                      &kPaper};

const Workload* find_workload(const std::string& name) {
  for (const Workload* w : kWorkloads) {
    if (name == w->name) return w;
  }
  return nullptr;
}

struct Metric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric of the traced run, in table order. A workload
/// that does not exercise one reports 0 and says why in the table.
const Metric kLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.heap_high_water", "count"},
    {"sim.sched_ns_per_event", "ns"},
    {"sim.slab_grows", "count"},
    {"sim.shard_speedup", "x"},
    {"sim.shard_wait_share", "%"},
    {"sim.shard_replay_ms", "ms"},
    {"sim.shard_imbalance", "max/mean"},
    {"sim.cross_shard_events", "count"},
    {"device.ns_per_event", "ns"},
    {"device.build_s", "s"},
    {"device.pfc_xoff", "count"},
    {"device.delivered_mb", "MB"},
    {"device.drops", "count"},
    {"device.dataplane_ms", "ms"},
    {"routing.install_s", "s"},
    {"topo.build_s", "s"},
    {"traffic.flows_s", "s"},
    {"analysis.risk_s", "s"},
    {"analysis.bdg_s", "s"},
    {"analysis.wait_for_us", "us"},
    {"analysis.drain_s", "s"},
    {"analysis.detect_ms", "sim_ms"},
    {"hybrid.ctor_s", "s"},
    {"hybrid.step_ms", "ms"},
    {"hybrid.steps", "count"},
    {"hybrid.risk_reassessments", "count"},
    {"hybrid.fluid_fraction", "ratio"},
    {"hybrid.zoom_events", "count"},
    {"hybrid.credited_packets", "count"},
    {"dataplane.confirms", "count"},
    {"dataplane.detect_ms", "sim_ms"},
    {"probe.overhead_pct", "%"},
    {"watch.overhead_pct", "%"},
    {"telemetry.overhead_pct", "%"},
    {"telemetry.export_s", "s"},
    {"telemetry.export_mb", "MB"},
    {"telemetry.records", "count"},
    {"watch.lead_ms", "sim_ms"},
    {"forensics.analyze_s", "s"},
    {"forensics.spans", "count"},
    {"scenarios.build_us", "us"},
    {"campaign.ms_per_live_run", "ms"},
    {"campaign.ms_per_deadlocked_run", "ms"},
    {"campaign.sink_s", "s"},
    {"campaign.jobs_speedup", "x"},
    {"trace.overhead_pct", "%"},
    {"trace.coverage_pct", "%"},
};

/// Layers the benchmark calls into; each gets a `<layer>.self_ms` metric.
const char* const kLayers[] = {
    "sim",      "device",    "routing",   "topo",     "traffic",
    "analysis", "hybrid",    "dataplane", "probe",    "watch",
    "telemetry", "forensics", "campaign", "scenarios"};

/// Traced spans must cover at least this share of each traced repetition's
/// wall time; the rest is untraced glue between calls.
constexpr double kMinCoveragePct = 98.0;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

struct Outcome {
  std::vector<Rep> reps;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::pair<double, const char*>>> metrics;
  std::map<std::string, std::string> notes;
};

/// Applies the fixed-work guard and folds one repetition into the tally.
void account(Outcome& out, Rep rep, const Checks& ck, int index) {
  out.attempted += rep.runs;
  std::uint64_t failed = rep.failed_runs;
  std::vector<std::string> why = rep.failures;
  for (const std::string& f : ck.failures()) why.push_back(f);
  if (!out.reps.empty()) {
    const Rep& first = out.reps.front();
    if (rep.events != first.events) {
      why.push_back("fixed-work guard: sim.events " +
                    std::to_string(rep.events) + " != " +
                    std::to_string(first.events) + " of repetition 1");
    }
    if (rep.verdicts != first.verdicts) {
      why.push_back("fixed-work guard: verdicts differ from repetition 1");
    }
  }
  if (failed == 0 && !why.empty()) failed = rep.runs;
  out.failed += failed;
  for (const std::string& w : why) {
    out.failures.push_back("rep " + std::to_string(index) + ": " + w);
  }
  std::printf("rep %d: setup %.6g s, phase %.6g s, events %llu, %s%s\n",
              index, rep.setup_s, rep.phase_s,
              static_cast<unsigned long long>(rep.events),
              rep.digest.c_str(), failed > 0 ? "  FAILED" : "");
  std::fflush(stdout);
  out.reps.push_back(std::move(rep));
}

/// One repetition in a fresh artifact directory.
Rep run_rep(const Workload& w, const Options& o, Tracer& tr, Checks& ck,
            Layers* L) {
  const ArtifactDir dir(o.out_dir);
  Options rep_o = o;
  rep_o.out_dir = dir.path();
  return w.rep(rep_o, tr, ck, L);
}

/// Repeats untraced repetitions until `seconds` have passed. The
/// calibration kernel runs before the first repetition and after each; a
/// repetition's times are scaled to reference seconds by the mean of the
/// two kernel times around it. The peak resident set is taken per
/// repetition, so the kernel's memory does not count.
void run_end_to_end(const Workload& w, const Options& o, Outcome& out) {
  constexpr std::size_t kMinReps = 3;
  Tracer off;
  const std::int64_t start = now_ns();
  std::vector<double> kernel_s = {calibration_kernel_seconds()};
  std::vector<double> rep_wall;
  double peak_rss = 0;
  while (true) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (out.reps.size() >= kMinReps &&
        elapsed + median(rep_wall) > o.seconds) {
      break;
    }
    const std::int64_t t0 = now_ns();
    reset_peak_rss();
    Checks ck;
    Rep rep = run_rep(w, o, off, ck, nullptr);
    peak_rss = std::max(peak_rss, peak_rss_mib());
    kernel_s.push_back(calibration_kernel_seconds());
    rep_wall.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    account(out, std::move(rep), ck, static_cast<int>(out.reps.size()) + 1);
  }
  std::vector<double> sim_rate, run_rate, setup, wall_sim_rate, wall_setup;
  for (std::size_t i = 0; i < out.reps.size(); ++i) {
    const Rep& r = out.reps[i];
    const double to_ref =
        kReferenceKernelS / ((kernel_s[i] + kernel_s[i + 1]) / 2);
    sim_rate.push_back(r.sim_ms / (r.phase_s * to_ref));
    run_rate.push_back(static_cast<double>(r.runs) / (r.phase_s * to_ref));
    setup.push_back(r.setup_s * to_ref);
    wall_sim_rate.push_back(r.sim_ms / r.phase_s);
    wall_setup.push_back(r.setup_s);
  }
  std::printf("host: calibration kernel median %.4f s (reference %.3f s); "
              "wall-clock medians sim_ms_per_s %.6g, setup_s %.6g\n",
              median(kernel_s), kReferenceKernelS, median(wall_sim_rate),
              median(wall_setup));
  out.metrics.push_back({"sim_ms_per_s", {median(sim_rate), "sim_ms/s"}});
  out.metrics.push_back({"runs_per_s", {median(run_rate), "runs/s"}});
  out.metrics.push_back({"setup_s", {median(setup), "s"}});
  out.metrics.push_back({"peak_rss_mb", {peak_rss, "MiB"}});
}

/// Alternates untraced and traced repetitions for half of `seconds` (at
/// least two pairs), then runs the extras, which take most of the rest.
void run_traced(const Workload& w, const Options& o, Outcome& out) {
  constexpr std::size_t kMinPairs = 2;
  Tracer tr;
  Layers L;
  std::vector<double> plain_s, traced_s, coverage;
  std::vector<int> traced_runs;
  const std::int64_t start = now_ns();
  while (true) {
    const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
    if (traced_s.size() >= kMinPairs && elapsed > o.seconds / 2) break;
    for (const bool traced : {false, true}) {
      tr.set_enabled(traced);
      tr.begin_run();
      Checks ck;
      const std::int64_t t0 = now_ns();
      Rep rep = run_rep(w, o, tr, ck, traced ? &L : nullptr);
      const double wall = static_cast<double>(now_ns() - t0) / 1e9;
      (traced ? traced_s : plain_s).push_back(rep.setup_s + rep.phase_s);
      if (traced) {
        coverage.push_back(100.0 * tr.top_level_seconds(tr.run()) / wall);
        traced_runs.push_back(tr.run());
      }
      account(out, std::move(rep), ck,
              static_cast<int>(out.reps.size()) + 1);
    }
  }
  w.extras(o, tr, L);
  tr.set_enabled(false);

  // Scheduler replay at the workload's heap high-water, and the device
  // share of the per-event cost it leaves (an estimate).
  const double sched = hold_model_ns_per_event(
      static_cast<std::size_t>(L.value["sim.heap_high_water"]), 2'000'000,
      o.seed);
  L.set("sim.sched_ns_per_event", sched);
  L.set("device.ns_per_event", L.value["sim.ns_per_event"] - sched);
  L.set("trace.overhead_pct",
        100.0 * (median(traced_s) / median(plain_s) - 1.0));
  const double min_cov = *std::min_element(coverage.begin(), coverage.end());
  L.set("trace.coverage_pct", min_cov);
  if (min_cov < kMinCoveragePct) {
    ++out.failed;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "trace reconcile: top-level spans cover %.2f%% of a traced "
                  "repetition, below %.0f%%",
                  min_cov, kMinCoveragePct);
    out.failures.push_back(buf);
  }

  // Self time per layer: the median over the traced repetitions.
  for (const char* layer : kLayers) {
    std::vector<double> self_ms;
    for (const int run : traced_runs) {
      for (const auto& row : tr.layer_table(run)) {
        if (row.layer == layer) self_ms.push_back(row.self_s * 1e3);
      }
    }
    const std::string name = std::string(layer) + ".self_ms";
    if (self_ms.empty()) {
      L.skip(name, "no public call into this layer on this workload");
    } else {
      L.set(name, median(self_ms));
    }
  }
  for (const Metric& m : kLayerMetrics) {
    if (L.value.count(m.name) == 0) {
      L.skip(m.name, "not exercised by this workload");
    }
  }

  std::string table = "per-layer metrics: " + o.workload + ", seed " +
                      std::to_string(o.seed) + "\n";
  char buf[512];
  const auto add_row = [&](const std::string& name, const char* unit) {
    const auto note = L.note.find(name);
    std::snprintf(buf, sizeof(buf), "  %-34s %16.6f %-9s %s\n", name.c_str(),
                  L.value[name], unit,
                  note == L.note.end() ? "" : note->second.c_str());
    table += buf;
    out.metrics.push_back({name, {L.value[name], unit}});
    if (note != L.note.end()) out.notes[name] = note->second;
  };
  for (const Metric& m : kLayerMetrics) add_row(m.name, m.unit);
  for (const char* layer : kLayers) {
    add_row(std::string(layer) + ".self_ms", "ms");
  }
  table += "\nspans by layer (all traced repetitions and extras):\n";
  for (const auto& row : tr.layer_table()) {
    std::snprintf(buf, sizeof(buf),
                  "  %-10s calls %6d  inclusive %10.3f ms  self %10.3f ms\n",
                  row.layer.c_str(), row.calls, row.total_s * 1e3,
                  row.self_s * 1e3);
    table += buf;
  }
  table += "\nengine profiler, last traced repetition:\n" + L.profile;
  const std::string stem =
      o.out_dir + "/" + o.workload + "-seed" + std::to_string(o.seed);
  write_file(stem + ".spans.json", tr.to_perfetto_json());
  write_file(stem + ".layers.txt", table);
  std::printf("%s", table.c_str());
}

void print_result(const Options& o, const Outcome& out) {
  std::string line = "{\"workload\":\"" + o.workload +
                     "\",\"seed\":" + std::to_string(o.seed) +
                     ",\"trace\":" + (o.trace ? "1" : "0") +
                     ",\"reps\":" + std::to_string(out.reps.size()) +
                     ",\"attempted\":" + std::to_string(out.attempted) +
                     ",\"failed\":" + std::to_string(out.failed) +
                     ",\"digest\":\"" +
                     json_escape(out.reps.empty() ? ""
                                                  : out.reps.front().digest) +
                     "\",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size() && i < 20; ++i) {
    line += (i > 0 ? ",\"" : "\"") + json_escape(out.failures[i]) + "\"";
  }
  line += "],\"metrics\":{";
  char buf[256];
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& [name, vu] = out.metrics[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i > 0 ? "," : "", name.c_str(),
                  std::isfinite(vu.first) ? vu.first : 0.0, vu.second);
    line += buf;
  }
  line += "},\"notes\":{";
  bool first = true;
  for (const auto& [name, why] : out.notes) {
    line += (first ? "\"" : ",\"") + name + "\":\"" + json_escape(why) + "\"";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int selftest(const Options& base) {
  int bad = 0;
  for (const Workload* w : kWorkloads) {
    const std::string det = w->determinism(base.seed);
    std::printf("%-9s determinism: %s\n", w->name,
                det.empty() ? "ok" : det.c_str());
    bad += det.empty() ? 0 : 1;

    Options o = base;
    o.workload = w->name;
    Tracer off;
    Checks ck;
    run_rep(*w, o, off, ck, nullptr);
    std::printf("%-9s checks: %d evaluated, %zu failed\n", w->name,
                ck.count(), ck.failures().size());
    for (const std::string& f : ck.failures()) {
      std::printf("  failed: %s\n", f.c_str());
    }
    bad += ck.failures().empty() && ck.count() > 0 ? 0 : 1;

    Checks wrong(/*wrong=*/true);
    run_rep(*w, o, off, wrong, nullptr);
    std::printf("%-9s checks against the wrong expectations: %d evaluated, "
                "%zu held\n",
                w->name, wrong.count(), wrong.held().size());
    for (const std::string& h : wrong.held()) {
      std::printf("  held: %s\n", h.c_str());
    }
    bad += wrong.held().empty() && wrong.count() == ck.count() ? 0 : 1;
  }
  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fabric|hybrid|incident|paper> "
               "--seed N --seconds S --trace <0|1> --out DIR\n"
               "       perfbench --selftest [--seed N] [--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      self = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      o.out_dir = argv[++i];
    } else {
      return usage();
    }
  }
  o.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (self) return selftest(o);
  const Workload* w = find_workload(o.workload);
  if (w == nullptr || !(o.seconds >= 0)) return usage();

  Outcome out;
  if (o.trace) {
    run_traced(*w, o, out);
  } else {
    run_end_to_end(*w, o, out);
  }
  print_result(o, out);
  return 0;
}
