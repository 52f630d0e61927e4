#!/usr/bin/env python3
"""Self-checks of the benchmark itself.

    python3 perfbench/selftest.py [--quick]

1. `perfbench --selftest`: for every workload, one seed yields the same flow
   list (run list for `paper`) and the same sim.events on a short horizon;
   every correctness check passes against the workload's expectations; and
   every check fails against the workload's wrong expectations, taken from
   a different configuration or outcome (the flipped verdict table for
   `paper`, the k=8 fabric's recorded fluid fraction for `hybrid`, a
   congestion-cascade trigger for `incident`, a lossy k=8 fabric for
   `fabric`).
2. BENCHMARK.json has the required keys, names, units and bounds.
3. Every workload, run through run.py for one second, prints exactly the
   metric names and units BENCHMARK.json declares: end-to-end with
   --trace 0, per-layer with --trace 1 (skipped under --quick).

Takes a few minutes; exits non-zero on the first failure.
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the runner's build and metric checks)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    assert 2 <= len(spec["workloads"]) <= 8
    names = set()
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
        assert NAME.match(w["name"]) and "\n" not in w["why"], w
    for group, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for m in spec[group]:
            assert set(m) == keys, m
            assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
            assert m["better"] in ("higher", "lower"), m
            assert m["name"] not in names, m["name"]
            names.add(m["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values()), bounds
    assert bounds["setup_s"] == max(bounds.values()), bounds
    print("BENCHMARK.json: ok (%d end-to-end, %d per-layer metrics)"
          % (len(spec["end_to_end"]), len(spec["per_layer"])))


def check_printed_metrics(workload, trace):
    cmd = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=400)
    assert proc.returncode == 0, "%s exited %d" % (cmd, proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = run.expected_metrics(trace)
    printed = {n: m["unit"] for n, m in result["metrics"].items()}
    assert printed == expected, (workload, trace)
    assert result["correct"] and result["failed"] == 0, result["failed"]
    print("%-9s --trace %d: %d metrics match BENCHMARK.json"
          % (workload, trace, len(printed)))


def main():
    quick = "--quick" in sys.argv[1:]
    binary = run.build(run.build_dir())
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as out:
        proc = subprocess.run([str(binary), "--selftest", "--seed", "7",
                               "--out", out], timeout=600)
    assert proc.returncode == 0, "perfbench --selftest failed"
    check_spec()
    for workload in ("fabric", "hybrid", "incident", "paper"):
        for trace in ((0,) if quick else (0, 1)):
            check_printed_metrics(workload, trace)
    print("selftest: ok")


if __name__ == "__main__":
    main()
