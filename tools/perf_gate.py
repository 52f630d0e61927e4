#!/usr/bin/env python3
"""Performance regression gate on the benchmark of record (perfbench/).

    python3 tools/perf_gate.py record [--file F]
    python3 tools/perf_gate.py check [--file F]

record runs `python3 perfbench/run.py --trace 0` for every BENCHMARK.json
workload on SEEDS for SECONDS each, the workloads interleaved seed by seed
so that a slow host state lands on all of them, then one `--trace 1` run
per workload on the first seed. It writes F (default BENCH_perf.json)
as dcdl.bench_perf.v8: the seeds and seconds, each end-to-end metric's
median and quartiles over the seeds, and the traced run's per-layer
metrics. It refuses to record a run with a failed operation.

check repeats the untraced runs with the seeds and seconds stored in F and
exits 1 when a run reports a failed operation, or when an end-to-end
metric's median is worse than recorded by more than its tolerance:

    sim_ms_per_s, runs_per_s   RATE_TOLERANCE
    setup_s, peak_rss_mb       the metric's BENCHMARK.json bound

A missing or malformed F exits 2 with a named error. Per-layer metrics are
recorded for reading, not gated.
"""

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "dcdl.bench_perf.v8"
RATE_METRICS = ("sim_ms_per_s", "runs_per_s")
# Many short runs rather than a few long ones: the host's slow states last
# minutes, so independent runs spread over time average them better. 5 s
# is about the three repetitions every run makes anyway; a check takes
# about 3.5 minutes.
SEEDS = list(range(1, 11))
SECONDS = 5
# The largest drop of a rate median that `check` forgives: the 10 % of
# the bench_perf gate this replaces, so it is no looser. Twelve checks of an
# unchanged tree against its file (4-vCPU x86-64 VM, 5 to 85 minutes after
# recording) put hybrid, incident and paper within 10 % of the recorded
# medians, but fabric read up to 15.9 % worse 55-65 minutes after
# recording: host drift that the calibration does not remove fails the
# check. To gate a change, record on its parent first and check the
# change against that file.
RATE_TOLERANCE = 0.10


class GateError(Exception):
    """A missing or malformed input; exits 2 with the message."""


def benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    return workloads, metrics


def run_workload(workload, seed, seconds, trace):
    """One run.py invocation; returns its result line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        sys.stdout.write(proc.stdout)
        raise RuntimeError("%s exited %d without a result line"
                           % (" ".join(cmd[1:]), proc.returncode))
    for line in lines[:-1]:
        if line.startswith("failure: "):
            print("  " + line)
    return result


def untraced_runs(workloads, metrics, seeds, seconds):
    """{workload: [metric values per seed]} and the failed-operation count."""
    values = {w: {m: [] for m in metrics} for w in workloads}
    failed = 0
    for seed in seeds:
        for w in workloads:
            result = run_workload(w, seed, seconds, 0)
            failed += result["failed"]
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            print("%-9s seed %-3d %s  (%d attempted, %d failed)" % (
                w, seed, "  ".join("%s %.4g" % (m, values[w][m][-1])
                                   for m in metrics),
                result["attempted"], result["failed"]), flush=True)
    return values, failed


def summary(samples):
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def field(obj, *keys):
    """obj[k1][k2]..., or None where a level is missing or not an object."""
    for key in keys:
        obj = obj.get(key) if isinstance(obj, dict) else None
    return obj


def host():
    cpus = re.findall(r"^model name\s*: (.*)$",
                      Path("/proc/cpuinfo").read_text(), re.M)
    return {"cpu": cpus[0] if cpus else "unknown", "nproc": os.cpu_count()}


def dumps(data):
    """Indented JSON with every innermost object or list on one line."""
    return re.sub(r"([\[{])\n\s*([^\[\]{}]*?)\n\s*([\]}])",
                  lambda m: m[1] + re.sub(r",\n\s*", ", ", m[2]) + m[3],
                  json.dumps(data, indent=1)) + "\n"


def record(args):
    workloads, metrics = benchmark_spec()
    values, failed = untraced_runs(workloads, metrics, SEEDS, SECONDS)
    if failed:
        print("perf_gate: %d failed operation(s); nothing recorded" % failed,
              file=sys.stderr)
        return 1
    out = {"schema": SCHEMA, "command": "python3 perfbench/run.py",
           "seeds": SEEDS, "seconds": SECONDS, "host": host(),
           "workloads": {}}
    for w in workloads:
        traced = run_workload(w, SEEDS[0], SECONDS, 1)
        if traced["failed"]:
            print("perf_gate: traced %s run failed; nothing recorded" % w,
                  file=sys.stderr)
            return 1
        out["workloads"][w] = {
            "end_to_end": {m: dict(unit=metrics[m]["unit"],
                                   better=metrics[m]["better"],
                                   **summary(values[w][m]))
                           for m in metrics},
            "per_layer": traced["metrics"],
        }
    Path(args.file).write_text(dumps(out))
    print("perf_gate: wrote %s" % args.file)
    return 0


def load_recorded(path, workloads, metrics):
    """The recorded file, validated; raises GateError naming the problem."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as e:
        raise GateError("cannot read %s: %s" % (path, e.strerror))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise GateError("%s is not valid JSON: %s" % (path, e))
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise GateError("%s: schema is not %s" % (path, SCHEMA))
    seeds, seconds = data.get("seeds"), data.get("seconds")
    if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and s >= 0 for s in seeds):
        raise GateError("%s: seeds must be a non-empty list of "
                        "non-negative integers" % path)
    if not isinstance(seconds, int) or seconds < 1:
        raise GateError("%s: seconds must be a positive integer" % path)
    for w in workloads:
        for m in metrics:
            median = field(data, "workloads", w, "end_to_end", m, "median")
            if not isinstance(median, (int, float)) or isinstance(
                    median, bool) or not math.isfinite(median) or median <= 0:
                raise GateError("%s: %s.%s median is not a positive number"
                                % (path, w, m))
    return data


def check(args):
    workloads, metrics = benchmark_spec()
    recorded = load_recorded(args.file, workloads, metrics)
    seeds, seconds = recorded["seeds"], recorded["seconds"]
    print("perf_gate: checking against %s (seeds %s, %d s each)"
          % (args.file, ",".join(map(str, seeds)), seconds), flush=True)
    values, failed = untraced_runs(workloads, metrics, seeds, seconds)

    worse = []
    print("\n%-9s %-13s %12s %12s %8s %6s" % (
        "workload", "metric", "recorded", "now", "worse", "limit"))
    for w in workloads:
        for m, spec in metrics.items():
            rec = recorded["workloads"][w]["end_to_end"][m]["median"]
            now = statistics.median(values[w][m])
            by = (1 - now / rec if spec["better"] == "higher"
                  else now / rec - 1)
            limit = RATE_TOLERANCE if m in RATE_METRICS else spec["bound"]
            print("%-9s %-13s %12.5g %12.5g %+7.1f%% %5.0f%%%s" % (
                w, m, rec, now, 100 * by, 100 * limit,
                "  WORSE" if by > limit else ""))
            if by > limit:
                worse.append("%s %s %.1f%% worse (limit %.0f%%)"
                             % (w, m, 100 * by, 100 * limit))
    if failed:
        print("perf_gate: %d failed operation(s)" % failed, file=sys.stderr)
    for line in worse:
        print("perf_gate: " + line, file=sys.stderr)
    if failed or worse:
        return 1
    print("perf_gate: ok, no end-to-end metric worse than its tolerance")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run the benchmark and write F")
    chk = sub.add_parser("check", help="re-run and compare against F")
    for p in (rec, chk):
        p.add_argument("--file", default=str(ROOT / "BENCH_perf.json"))
    args = ap.parse_args()
    try:
        return record(args) if args.command == "record" else check(args)
    except GateError as e:
        print("perf_gate: %s" % e, file=sys.stderr)
        return 2
    except RuntimeError as e:
        print("perf_gate: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
