#!/usr/bin/env sh
# Output parity between two build trees: runs every figure bench
# (bench/bench_*) at --run_ms=2 — except bench_speedup, whose wall-clock
# columns differ from run to run — plus the quickstart, paper_walkthrough
# and fabric_audit examples at their defaults, in both trees, and compares
# each binary's stdout with cmp and its exit status.
#
#   tools/bench_parity.sh REF_BUILD [BUILD]   # BUILD defaults to build
#
# Build both trees first (for example a change's parent commit into
# REF_BUILD). Prints one line per binary that differs or is missing from
# either tree and exits 1 if any does; exit 0 means every table and
# walkthrough is byte-identical.
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

for path in "$cur"/bench/bench_*; do
  name=$(basename "$path")
  [ "$name" = bench_speedup ] && continue
  compare "bench/$name" --run_ms=2
done
for name in quickstart paper_walkthrough fabric_audit; do
  compare "examples/$name"
done

if [ "$differ" -ne 0 ]; then
  echo "bench_parity.sh: $differ of $compared binaries differ"
  exit 1
fi
echo "bench_parity.sh: all $compared binaries byte-identical"
