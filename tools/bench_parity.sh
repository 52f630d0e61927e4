#!/usr/bin/env sh
# Output parity between two build trees: runs every figure bench
# (bench/bench_*) at --run_ms=2 — except bench_speedup, whose wall-clock
# columns differ from run to run — plus the quickstart, paper_walkthrough
# and fabric_audit examples at their defaults, in both trees, and compares
# each binary's stdout with cmp and its exit status.
#
# A second leg compares campaign artifacts: `dcdl_sweep --scenario S
# --seeds 2 --run_ms 3 --quiet --trace D --out D/campaign.json` for every
# scenario `dcdl_sweep --list` names, under --hybrid off and --hybrid risk,
# and for valley under --set dataplane=drop, reroute and pfc_lift. Every
# file of the two trees' D must match with cmp; a file only one tree wrote
# is a difference, and so is a different exit status.
#
#   tools/bench_parity.sh REF_BUILD [BUILD]   # BUILD defaults to build
#
# Build both trees first (for example a change's parent commit into
# REF_BUILD). Prints one line per binary or sweep that differs or is
# missing from either tree and exits 1 if any does; exit 0 means every
# table, walkthrough and campaign artifact is byte-identical.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: tools/bench_parity.sh REF_BUILD [BUILD]" >&2
  exit 2
fi
ref=$1
cur=${2:-"$repo_root/build"}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

compared=0
differ=0
# compare BINARY [ARGS...]: BINARY is relative to a build tree.
compare() {
  bin=$1
  shift
  name=$(basename "$bin")
  compared=$((compared + 1))
  if [ ! -x "$ref/$bin" ] || [ ! -x "$cur/$bin" ]; then
    echo "missing: $bin"
    differ=$((differ + 1))
    return
  fi
  ref_rc=0
  "$ref/$bin" "$@" > "$out/$name.ref" 2> /dev/null || ref_rc=$?
  cur_rc=0
  "$cur/$bin" "$@" > "$out/$name.cur" 2> /dev/null || cur_rc=$?
  if [ "$ref_rc" -ne "$cur_rc" ]; then
    echo "differs: $bin (exit $ref_rc vs $cur_rc)"
    differ=$((differ + 1))
  elif ! cmp -s "$out/$name.ref" "$out/$name.cur"; then
    echo "differs: $bin (stdout)"
    differ=$((differ + 1))
  fi
}

# sweep LABEL ARGS...: one dcdl_sweep campaign with per-run artifacts in
# each tree; every file of the two output directories must match.
sweep() {
  label=$1
  shift
  compared=$((compared + 1))
  if [ ! -x "$ref/examples/dcdl_sweep" ] ||
    [ ! -x "$cur/examples/dcdl_sweep" ]; then
    echo "missing: examples/dcdl_sweep"
    differ=$((differ + 1))
    return
  fi
  a="$out/sweep.$label.ref"
  b="$out/sweep.$label.cur"
  mkdir -p "$a" "$b"
  ref_rc=0
  "$ref/examples/dcdl_sweep" "$@" --seeds 2 --run_ms 3 --quiet \
    --trace "$a" --out "$a/campaign.json" > /dev/null 2>&1 || ref_rc=$?
  cur_rc=0
  "$cur/examples/dcdl_sweep" "$@" --seeds 2 --run_ms 3 --quiet \
    --trace "$b" --out "$b/campaign.json" > /dev/null 2>&1 || cur_rc=$?
  if [ "$ref_rc" -ne "$cur_rc" ]; then
    echo "differs: dcdl_sweep $label (exit $ref_rc vs $cur_rc)"
    differ=$((differ + 1))
  elif [ "$(ls "$a")" != "$(ls "$b")" ]; then
    echo "differs: dcdl_sweep $label (file set)"
    differ=$((differ + 1))
  else
    for f in $(ls "$a"); do
      if ! cmp -s "$a/$f" "$b/$f"; then
        echo "differs: dcdl_sweep $label ($f)"
        differ=$((differ + 1))
        return
      fi
    done
  fi
}

for path in "$cur"/bench/bench_*; do
  name=$(basename "$path")
  [ "$name" = bench_speedup ] && continue
  compare "bench/$name" --run_ms=2
done
for name in quickstart paper_walkthrough fabric_audit; do
  compare "examples/$name"
done

# Scenario names are the --list lines that are not indented.
scenarios=$("$cur/examples/dcdl_sweep" --list | awk '/^[a-z]/ {print $1}')
for scenario in $scenarios; do
  for mode in off risk; do
    sweep "$scenario.$mode" --scenario "$scenario" --hybrid "$mode"
  done
done
for policy in drop reroute pfc_lift; do
  sweep "valley.$policy" --scenario valley --set "dataplane=$policy"
done

if [ "$differ" -ne 0 ]; then
  echo "bench_parity.sh: $differ of $compared binaries and sweeps differ"
  exit 1
fi
echo "bench_parity.sh: all $compared binaries and sweeps byte-identical"
