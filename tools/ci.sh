#!/usr/bin/env sh
# The one-command local CI gate: configure, build, and run the full test
# suite exactly as the tier-1 check does.
#
#   tools/ci.sh [build-dir]              # default: build
#   tools/ci.sh --sanitizers [build-dir] # additionally chain asan.sh and
#                                        # tsan.sh (their own build dirs)
#   tools/ci.sh --full [build-dir]       # sanitizers + the sharded
#                                        # determinism leg + the perfbench
#                                        # regression gate against the
#                                        # committed BENCH_perf.json
#
# A clean exit means the tree is committable: every gtest suite passed;
# with --sanitizers the ASan+UBSan full suite and the TSan campaign +
# sharded-engine + dataplane + hybrid binaries are clean too; with --full
# the sharded engine additionally re-proves digest equality at 4 shards
# under TSan (the release-blocking determinism check), the in-switch
# dataplane pipeline re-proves its recovery timeline byte-identical across
# shard counts and across campaign --jobs under TSan, the hybrid
# fluid/packet engine re-proves artifact byte-identity across
# --jobs x --shards and verdict agreement against the pure packet engine,
# and tools/perf_gate.py check found no failed operation and no end-to-end
# perfbench metric worse than BENCH_perf.json by more than its tolerance.
# perfbench builds its own tree (.bench_build/perfbench); sanitizer builds
# are not valid timing baselines.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

sanitizers=0
perf=0
case "${1:-}" in
  --sanitizers)
    sanitizers=1
    shift
    ;;
  --full)
    sanitizers=1
    perf=1
    shift
    ;;
esac
build_dir=${1:-"$repo_root/build"}

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j"$(nproc)"
(cd "$build_dir" && ctest --output-on-failure -j"$(nproc)")

if [ "$perf" = 1 ]; then
  # Sharded determinism leg: the byte-identity suite (digests at 1/2/4/8
  # shards, summary + forensics equality at 4 shards) under ThreadSanitizer.
  # tsan.sh below runs the whole binary too; this explicit filtered pass is
  # the release-blocking check and fails fast before the perf gate.
  tsan_dir="$repo_root/build-tsan"
  cmake -B "$tsan_dir" -S "$repo_root" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$tsan_dir" --target test_sharded -j"$(nproc)"
  "$tsan_dir/tests/test_sharded" \
    --gtest_filter='ShardedDigest.*:ShardedRun.*'

  # Dataplane determinism leg: the in-switch detection/recovery pipeline
  # must produce the same detection/recovery timeline whatever the thread
  # layout. Two angles, both under TSan: the gtest shard-invariance suite
  # (1/2/4 shards inside one run), and a dcdl_sweep recovery campaign whose
  # JSON artifact must be byte-identical across --jobs x --shards
  # combinations.
  cmake --build "$tsan_dir" --target test_dataplane dcdl_sweep -j"$(nproc)"
  "$tsan_dir/tests/test_dataplane" --gtest_filter='DataplaneSharded.*'
  dp_sweep() {
    "$tsan_dir/examples/dcdl_sweep" --scenario valley \
      --set "dataplane=reroute" --seeds 2 --run_ms 6 --jobs "$1" \
      --shards "$2" --quiet --out "$3"
  }
  # One identity class: neither --jobs nor --shards may change a byte.
  dp_sweep 1 1 "$tsan_dir/dp_s1.json"
  dp_sweep 4 2 "$tsan_dir/dp_s2.json"
  cmp "$tsan_dir/dp_s1.json" "$tsan_dir/dp_s2.json"

  # Hybrid-engine equivalence leg: the fluid/packet zoom must perturb
  # neither verdicts nor determinism. The gtest byte-identity suite runs
  # under TSan (the controller's step events replay through the window
  # barrier): HybridExecutor.* sweeps routing_loop, where nothing
  # fluidizes, and HybridShards.* pins fluid integration, credits and zoom
  # on k=4/k=8 fat-trees at 1/2/4 shards. Then a routing-loop sweep with
  # the zoom on must be byte-identical across --jobs x --shards, and its
  # core verdict columns (through pause_assertions — event counts
  # legitimately differ, the controller schedules its own steps) must
  # match the same sweep with the zoom off.
  cmake --build "$tsan_dir" --target test_hybrid -j"$(nproc)"
  "$tsan_dir/tests/test_hybrid" \
    --gtest_filter='HybridExecutor.*:HybridShards.*'
  hy_sweep() {
    "$tsan_dir/examples/dcdl_sweep" --scenario routing_loop \
      --grid "inject=4..6gbps:2" --seeds 2 --run_ms 6 --hybrid "$1" \
      --jobs "$2" --shards "$3" --quiet --out "$4" --csv "$5"
  }
  hy_sweep risk 1 1 "$tsan_dir/hy_s1.json" "$tsan_dir/hy_s1.csv"
  hy_sweep risk 4 2 "$tsan_dir/hy_s2.json" "$tsan_dir/hy_s2.csv"
  cmp "$tsan_dir/hy_s1.json" "$tsan_dir/hy_s2.json"
  hy_sweep off 1 1 "$tsan_dir/hy_off.json" "$tsan_dir/hy_off.csv"
  cut -d, -f1-11 "$tsan_dir/hy_off.csv" > "$tsan_dir/hy_off_core.csv"
  cut -d, -f1-11 "$tsan_dir/hy_s1.csv" > "$tsan_dir/hy_risk_core.csv"
  cmp "$tsan_dir/hy_off_core.csv" "$tsan_dir/hy_risk_core.csv"

  # Probe time-series leg: the always-on dcdl::probe sampler snapshots at
  # window barriers, so its `dcdl.timeseries.v1` artifact obeys the same
  # identity class as the telemetry JSON — byte-identical across
  # --jobs x --shards. dcdl_report over the same campaign directory must
  # also be a pure function of its inputs (two invocations, identical
  # bytes).
  cmake --build "$tsan_dir" --target test_probe dcdl_report -j"$(nproc)"
  "$tsan_dir/tests/test_probe"
  ts_sweep() {
    out_dir="$tsan_dir/ts_$4"
    rm -rf "$out_dir"
    "$tsan_dir/examples/dcdl_sweep" --scenario routing_loop \
      --grid "inject=4..6gbps:2" --seeds 1 --run_ms 4 --jobs "$1" \
      --shards "$2" --quiet --trace "$out_dir" \
      --out "$out_dir/campaign.json"
  }
  ts_sweep 1 1 x j1s1
  ts_sweep 4 2 x j4s2
  cmp "$tsan_dir/ts_j1s1/run_00000.timeseries.jsonl" \
      "$tsan_dir/ts_j4s2/run_00000.timeseries.jsonl"
  cmp "$tsan_dir/ts_j1s1/run_00001.timeseries.jsonl" \
      "$tsan_dir/ts_j4s2/run_00001.timeseries.jsonl"
  "$tsan_dir/examples/dcdl_report" --dir "$tsan_dir/ts_j1s1" \
    --out "$tsan_dir/report_a.md"
  "$tsan_dir/examples/dcdl_report" --dir "$tsan_dir/ts_j1s1" \
    --out "$tsan_dir/report_b.md"
  cmp "$tsan_dir/report_a.md" "$tsan_dir/report_b.md"

  # Watch early-warning leg: dcdl::watch samples the wait-for graph and
  # pause state at the same window barriers as the probe, so its
  # `dcdl.alerts.v1` artifact obeys the same identity class. The gtest
  # suite (rule-engine edges, lead-time assertions, executor jobs
  # invariance) runs under TSan, then the alert streams from the probe
  # leg's sweeps above must be byte-identical across --jobs x --shards.
  cmake --build "$tsan_dir" --target test_watch -j"$(nproc)"
  "$tsan_dir/tests/test_watch"
  cmp "$tsan_dir/ts_j1s1/run_00000.alerts.jsonl" \
      "$tsan_dir/ts_j4s2/run_00000.alerts.jsonl"
  cmp "$tsan_dir/ts_j1s1/run_00001.alerts.jsonl" \
      "$tsan_dir/ts_j4s2/run_00001.alerts.jsonl"

  # Perf gate: every perfbench workload (fabric, hybrid, incident with the
  # whole observability stack attached, the paper's campaign runs) re-run
  # with the seeds and seconds stored in BENCH_perf.json. Nothing else may
  # run while it measures, so it comes after the TSan legs.
  python3 "$repo_root/tools/perf_gate.py" check
fi

if [ "$sanitizers" = 1 ]; then
  "$repo_root/tools/asan.sh"
  "$repo_root/tools/tsan.sh"
fi

echo "ci.sh: all checks passed"
