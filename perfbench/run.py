#!/usr/bin/env python3
"""Build and run the dcdl benchmark; print one JSON result line.

    python3 perfbench/run.py --workload <fabric|hybrid|incident|paper> \
        --seed N --seconds S --trace <0|1>

Builds perfbench/ (which compiles the dcdl library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs one
workload, checks that the metric names and units it printed are the ones
BENCHMARK.json declares, and prints as the last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones; the
traced run also leaves <workload>-seed<N>.spans.json (Perfetto) and
<workload>-seed<N>.layers.txt under <build dir>/traces/. Exits non-zero
without a result line when the build fails or perfbench misbehaves.
"""

import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(bdir):
    """Configures once, then builds incrementally, under a lock so that
    concurrent runs in one checkout do not build over each other."""
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    with open(bdir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (bdir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(bdir), "-j", jobs])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s (%s)" % (" ".join(cmd), e))
            if proc.returncode != 0:
                if not (bdir / "build.ninja").exists() and \
                        not (bdir / "Makefile").exists():
                    # A failed configure must not leave a cache behind that
                    # makes the next run skip configuring.
                    (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                fail("build failed: %s\n%s" % (" ".join(cmd), tail))
    binary = bdir / "perfbench"
    if not binary.exists():
        fail("build produced no perfbench binary")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_metrics(metrics, expected, trace):
    """Returns the problems with the printed metrics (names, units, values)."""
    problems = []
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append("missing metrics: " + ", ".join(missing))
    if extra:
        problems.append("metrics not in BENCHMARK.json: " + ", ".join(extra))
    for name, m in metrics.items():
        if name in expected and m.get("unit") != expected[name]:
            problems.append("%s: unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), expected[name]))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r is not a finite number" % (name, value))
        elif not trace and value <= 0:
            problems.append("%s: end-to-end value %r is not positive"
                            % (name, value))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["fabric", "hybrid", "incident", "paper"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must not be negative")

    bdir = build_dir()
    binary = build(bdir)
    expected = expected_metrics(args.trace)

    # Artifacts the workloads export (incident files, the paper sweep's
    # result JSON and CSV) live only for the run, inside the checkout: the
    # benchmark reads and writes nothing outside it, so it does not use a
    # memory-backed directory such as /dev/shm. perfbench gives each
    # repetition a fresh subdirectory, so no file is truncated and
    # rewritten inside a timed phase.
    (bdir / "tmp").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=args.workload + "-", dir=bdir / "tmp"))
    try:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(work)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("workload %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            fail("perfbench exited with code %d" % proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            sys.stdout.write(proc.stdout)
            fail("perfbench printed no result line")
        if args.trace:
            traces = bdir / "traces"
            traces.mkdir(exist_ok=True)
            for f in work.glob("*.spans.json"):
                shutil.move(str(f), traces / f.name)
            for f in work.glob("*.layers.txt"):
                shutil.move(str(f), traces / f.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in lines[:-1]:
        print(line)
    for failure in result.get("failures", []):
        print("failure: " + failure)
    problems = check_metrics(result["metrics"], expected, args.trace)
    if problems:
        fail("; ".join(problems))
    if result["digest"]:
        print("digest: " + result["digest"])
    failed = int(result["failed"])
    out = {
        "correct": failed == 0,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
