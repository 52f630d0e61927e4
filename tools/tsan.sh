#!/usr/bin/env sh
# Builds the concurrency-bearing tests with -fsanitize=thread and runs
# them, proving the campaign worker pool and the event engine at two or
# more shards are race-free under a real data race detector (at one shard
# the engine runs inline on the calling thread):
#
#   - test_campaign: the executor's worker pool (atomic cursor,
#     pre-assigned record slots, locked progress callback); its determinism
#     test runs the same sweep at jobs=1 and jobs=8 and asserts
#     byte-identical artifacts.
#   - test_sharded: the event engine — worker threads, window barriers,
#     mailboxes, per-shard trace buffers. Its digest tests run the paper
#     scenarios at 1/2/4/8 shards, so every cross-thread edge of the window
#     protocol executes under TSan. The engine carries no
#     TSan suppressions or annotations: all cross-thread accesses are
#     ordered by the two std::barrier arrive_and_wait calls per device pass
#     (see DESIGN.md "Sharded simulation architecture"), so a clean run is
#     by construction, not by exclusion.
#   - test_dataplane: the in-switch detection/recovery pipeline, whose
#     tagged PFC frames and recovery timers cross shard boundaries; its
#     shard-invariance test runs the valley recovery scenario at 1/2/4
#     shards and asserts identical summaries.
#   - test_hybrid: the hybrid fluid/packet engine — its controller runs on
#     the control simulator while the engine's workers execute device
#     events; the byte-identity test sweeps with the zoom on across
#     jobs=1/shards=1 and jobs=4/shards=2 (a routing loop: nothing
#     fluidizes), and HybridShards.FluidPathDigestPinnedAcrossShardCounts
#     exercises fluid integration, whole-packet credits and the zoom on
#     k=4 and k=8 fat-trees at 1/2/4 shards against pinned digests.
#   - test_probe: the dcdl::probe time-series layer — its sampler ticks on
#     the control simulator while shard workers run device events, and its
#     byte-identity test renders the `dcdl.timeseries.v1` artifact at
#     1/2/4 shards. The profiler is thread_local-install-only (workers see
#     a null pointer and never write), so a clean run proves that design.
#   - test_watch: the dcdl::watch early-warning layer — its rule engine
#     steps and wait-for-graph snapshots run at shard-window barriers while
#     worker threads execute device events; the byte-identity test renders
#     the `dcdl.alerts.v1` artifact at 1/2/4 shards, and the executor test
#     compares alert records across jobs=1 and jobs=4.
#   - test_simulator: the single-threaded core under the same build, as a
#     control.
#
#   tools/tsan.sh [build-dir]          # default: build-tsan
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"

cmake --build "$build_dir" \
  --target test_campaign test_sharded test_dataplane test_hybrid \
  test_probe test_watch test_simulator -j"$(nproc)"

# gtest binaries run directly (no ctest discovery needed under TSan).
"$build_dir/tests/test_campaign"
"$build_dir/tests/test_sharded"
"$build_dir/tests/test_dataplane"
"$build_dir/tests/test_hybrid"
"$build_dir/tests/test_probe"
"$build_dir/tests/test_watch"
"$build_dir/tests/test_simulator"

echo "tsan.sh: campaign + sharded + dataplane + hybrid + probe + watch + simulator tests clean under ThreadSanitizer"
