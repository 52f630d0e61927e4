#!/usr/bin/env sh
# Builds the full test suite with -fsanitize=address,undefined and runs it,
# proving the hot-path memory machinery (event slab recycling, InplaceFn
# inline storage and relocation, RingQueue ring indexing, interned route
# groups, thread-local arena hand-off) is free of lifetime and UB bugs.
#
#   tools/asan.sh [build-dir]          # default: build-asan
#
# -fno-sanitize-recover makes any UBSan hit fail the run instead of just
# printing; a clean exit means the entire suite is ASan+UBSan clean.
# -D_GLIBCXX_ASSERTIONS bounds-checks std::vector::operator[] and friends:
# ASan alone misses an index into the flat per-(port, class) switch arrays
# that lands past size() but inside the vector's capacity.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-asan"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer -D_GLIBCXX_ASSERTIONS" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"

cmake --build "$build_dir" -j"$(nproc)"

(cd "$build_dir" && ctest --output-on-failure -j"$(nproc)")

echo "asan.sh: full suite clean under AddressSanitizer + UBSanitizer + _GLIBCXX_ASSERTIONS"
