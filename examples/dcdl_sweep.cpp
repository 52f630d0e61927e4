// dcdl_sweep — the campaign CLI: run a (scenario x parameter-grid x seeds)
// sweep on a thread pool and emit structured JSON/CSV artifacts.
//
//   $ ./dcdl_sweep --scenario routing_loop --grid inject=2..8gbps:7
//         --seeds 4 --jobs 8 --out out.json
//   $ ./dcdl_sweep --scenario four_switch
//         --grid "with_flow3=true;flow3_limit=1..8gbps:15" --seeds 5
//         --run_ms=20 --out fig5.json --csv fig5.csv
//   $ ./dcdl_sweep --scenario valley --set "dataplane=reroute" --seeds 3
//         --out recovery.json   # in-switch DCFIT pipeline; v3 artifacts
//         # carry detection_latency_ns / recovery_time_ns / false_positive
//   $ ./dcdl_sweep --list   # every scenario and its --set/--grid keys
//
// Flags: --scenario, --grid "a=lo..hi:steps;b=x,y,z", --set "k=v;k2=v2",
// --seeds, --root_seed, --run_ms, --drain_ms, --dwell_ms, --jobs, --out,
// --csv, --timeout_ms (0 = off), --timing (include wall-clock in artifacts;
// breaks byte-stable diffing), --quiet, --shards (shards per run, default
// 1; at N >= 2 each run gets N worker threads; artifacts are byte-identical
// for every --shards, and shard threads multiply with --jobs — shard wide
// runs with few jobs, or leave at 1 when the campaign already saturates the
// cores), --hybrid <off|static|risk> (run every run
// under the hybrid fluid/packet engine; v4 artifacts carry hybrid_mode /
// zoom_events / fluid_fraction, and verdicts are identical to --hybrid off
// by construction).
//
// Observability: --progress (live completed/total counter with run rate and
// ETA on stderr — stdout artifacts stay byte-identical), --trace <dir>
// (per-run Perfetto + dcdl.telemetry.v1 JSONL + dcdl.timeseries.v1 JSONL
// exports, plus deadlock post-mortems; feed the directory to dcdl_report
// for an aggregated markdown report), --probe_us N (time-series and
// watch sampling interval, default 100), --metrics (aggregate telemetry
// summary on stderr after the sweep).
#include <chrono>
#include <cstdio>
#include <map>
#include <string>

#include "dcdl/campaign/campaign.hpp"
#include "dcdl/common/flags.hpp"

using namespace dcdl;
using namespace dcdl::campaign;

namespace {

void list_scenarios(const ScenarioRegistry& reg) {
  for (const std::string& name : reg.names()) {
    const ScenarioDef& def = reg.at(name);
    std::printf("%s — %s\n", name.c_str(), def.description.c_str());
    for (const ParamSpec& p : def.params) {
      std::printf("  %s=<%s%s%s>: %s\n", p.name.c_str(),
                  to_string(p.kind), p.unit.empty() ? "" : ", ",
                  p.unit.c_str(), p.description.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool list = flags.get_bool("list", false);
  const std::string scenario = flags.get_string("scenario", "");
  const std::string grid = flags.get_string("grid", "");
  const std::string sets = flags.get_string("set", "");
  const int seeds = static_cast<int>(flags.get_int("seeds", 1));
  const auto root_seed =
      static_cast<std::uint64_t>(flags.get_int("root_seed", 1));
  const std::int64_t run_ms = flags.get_int("run_ms", 6);
  const std::int64_t drain_ms = flags.get_int("drain_ms", run_ms + 10);
  const std::int64_t dwell_ms = flags.get_int("dwell_ms", 1);
  const int jobs = flags.jobs();
  const int shards = flags.shards();
  const std::string out_json = flags.out();
  const std::string out_csv = flags.get_string("csv", "");
  const double timeout_ms = flags.get_double("timeout_ms", 0);
  const bool timing = flags.get_bool("timing", false);
  const bool quiet = flags.get_bool("quiet", false);
  const bool progress = flags.get_bool("progress", false);
  const std::string trace_dir = flags.get_string("trace", "");
  const std::int64_t probe_us =
      flags.get_int("probe_us", probe::kSampleInterval.ps() / 1'000'000);
  const bool metrics = flags.get_bool("metrics", false);
  const std::string hybrid_str = flags.get_string("hybrid", "off");
  const std::optional<hybrid::Mode> hybrid_mode =
      hybrid::parse_mode(hybrid_str);
  if (!hybrid_mode) {
    std::fprintf(stderr, "dcdl_sweep: unknown --hybrid=%s (off|static|risk)\n",
                 hybrid_str.c_str());
    return 2;
  }
  flags.check_unused();

  ScenarioRegistry& reg = ScenarioRegistry::global();
  if (list) {
    list_scenarios(reg);
    return 0;
  }
  if (scenario.empty()) {
    std::fprintf(stderr,
                 "usage: dcdl_sweep --scenario <name> [--grid ...] "
                 "[--seeds N] [--jobs N] [--out file.json]\n"
                 "       dcdl_sweep --list\n");
    return 2;
  }

  try {
    SweepSpec spec;
    spec.scenario = scenario;
    spec.axes = parse_grid(grid);
    apply_sets(spec.base, sets);
    spec.seeds_per_cell = seeds;
    spec.root_seed = root_seed;
    spec.run_for = Time{run_ms * 1'000'000'000};
    spec.drain_grace = Time{drain_ms * 1'000'000'000};
    spec.monitor_dwell = Time{dwell_ms * 1'000'000'000};
    reg.validate_params(scenario, spec.base);
    for (const GridAxis& axis : spec.axes) {
      ParamMap probe;
      probe.set(axis.param, axis.values.front());
      reg.validate_params(scenario, probe);
    }

    const std::vector<RunSpec> runs = expand(spec);
    if (!quiet) {
      std::fprintf(stderr,
                   "dcdl_sweep: %zu run(s) of '%s' (%zu axis/axes, %d "
                   "seed(s)/cell) on %d job(s)\n",
                   runs.size(), scenario.c_str(), spec.axes.size(), seeds,
                   jobs);
    }

    ExecutorOptions opts;
    opts.jobs = jobs;
    opts.shards = shards;
    opts.hybrid.mode = *hybrid_mode;
    opts.run_wall_budget_ms = timeout_ms;
    opts.probe_interval = Time{probe_us * 1'000'000};
    if (!trace_dir.empty()) {
      ensure_output_dir(trace_dir);
      opts.trace_dir = trace_dir;
    }
    std::size_t done = 0;
    const auto sweep0 = std::chrono::steady_clock::now();
    if (progress) {
      // A single live counter, rewritten in place, with the observed run
      // rate and the ETA it implies. Strictly stderr: stdout carries the
      // JSON/CSV artifacts and must stay byte-identical whether or not
      // anyone is watching. format_progress renders `--.- run/s, eta --:--`
      // until the first run completes, so long sweeps show a sane line
      // immediately instead of an inf/nan extrapolation.
      std::fprintf(stderr, "\r%s ",
                   format_progress(0, runs.size(), -1, "", 0.0).c_str());
      std::fflush(stderr);
      opts.on_run_done = [&done, &runs, sweep0](const RunRecord& rec) {
        ++done;
        const double elapsed_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          sweep0)
                .count();
        std::fprintf(stderr, "\r%s ",
                     format_progress(done, runs.size(), rec.run_index,
                                     to_string(rec.status), elapsed_s)
                         .c_str());
        std::fflush(stderr);
      };
    } else if (!quiet) {
      opts.on_run_done = [&done, &runs](const RunRecord& rec) {
        ++done;
        std::fprintf(stderr, "  [%zu/%zu] run %d %s%s%s\n", done, runs.size(),
                     rec.run_index, to_string(rec.status),
                     rec.error.empty() ? "" : ": ", rec.error.c_str());
      };
    }
    CampaignExecutor exec(reg, opts);
    const CampaignResult result = exec.run(runs, root_seed);
    if (progress) std::fputc('\n', stderr);

    WriteOptions wopts;
    wopts.include_timing = timing;
    if (!out_json.empty()) write_text_file(out_json, to_json(result, wopts));
    if (!out_csv.empty()) write_text_file(out_csv, to_csv(result));
    if (out_json.empty() && out_csv.empty()) {
      std::fputs(to_csv(result).c_str(), stdout);
    }

    if (metrics) {
      // Aggregate telemetry across ok runs: counters sum; everything is
      // printed in first-seen (registration) order for stable output.
      std::vector<std::string> order;
      std::map<std::string, double> sums;
      std::size_t ok_runs = 0;
      for (const RunRecord& rec : result.records) {
        if (rec.status != RunStatus::kOk) continue;
        ++ok_runs;
        for (const auto& [name, value] : rec.telemetry) {
          if (sums.emplace(name, 0.0).second) order.push_back(name);
          sums[name] += value;
        }
      }
      std::fprintf(stderr, "dcdl_sweep: telemetry totals over %zu ok run(s)\n",
                   ok_runs);
      for (const std::string& name : order) {
        std::fprintf(stderr, "  %-40s %.6g\n", name.c_str(), sums[name]);
      }
    }

    std::fprintf(stderr,
                 "dcdl_sweep: %zu ok, %zu failed, %zu timeout, %zu cancelled "
                 "in %.0f ms wall (%d jobs)%s%s\n",
                 result.count(RunStatus::kOk),
                 result.count(RunStatus::kFailed),
                 result.count(RunStatus::kTimeout),
                 result.count(RunStatus::kCancelled), result.total_wall_ms,
                 result.jobs, out_json.empty() ? "" : " -> ",
                 out_json.c_str());
    return result.count(RunStatus::kFailed) == 0 ? 0 : 1;
  } catch (const CampaignError& e) {
    std::fprintf(stderr, "dcdl_sweep: %s\n", e.what());
    return 2;
  }
}
