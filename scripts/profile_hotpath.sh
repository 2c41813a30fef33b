#!/bin/sh
# profile_hotpath.sh — fresh gprof profile of the memory-system hot path,
# the starting point ROADMAP.md prescribes for every perf PR: build an
# out-of-tree -pg tree (the normal build stays untouched), run
# `bench/perf_hotpath --scale=bench` three times, and write the annotated
# flat profile + call graph of run 1 followed by the top flat-profile
# lines of runs 2 and 3 as a stability cross-check. (Pooling the runs
# with `gprof -s` would be preferable, but the image's binutils gprof
# dies with "somebody miscounted: ltab.len=..." on this binary's symbol
# table — even merging a gmon file with itself — so each run is analyzed
# separately; the workload is deterministic, so the runs agree to
# sampling noise.)
#
#   scripts/profile_hotpath.sh [--build=DIR] [--out=FILE] [-- extra args]
#
# Defaults: --build=build-pg, --out=profile_hotpath.txt. Extra args after
# `--` go to perf_hotpath (e.g. `-- --nodes=8`).
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$repo/build-pg"
out="$repo/profile_hotpath.txt"
while [ $# -gt 0 ]; do
  case "$1" in
    --build=*) build="${1#--build=}" ;;
    --out=*)   out="${1#--out=}" ;;
    --)        shift; break ;;
    *) echo "usage: $0 [--build=DIR] [--out=FILE] [-- harness args]" >&2
       exit 2 ;;
  esac
  shift
done

# Out-of-tree instrumented build: optimized (so the profile reflects the
# shipped inlining) but with -pg call counting and symbols. -no-pie pins
# the text segment, without which ASLR makes the three gmon histograms
# incompatible and `gprof -s` dies with "somebody miscounted".
cmake -B "$build" -S "$repo" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-pg -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-pg -no-pie" >/dev/null
cmake --build "$build" -j "$(nproc)" --target perf_hotpath >/dev/null

bin="$build/bench/perf_hotpath"
cd "$build"  # gmon.out lands in the cwd

# Three full runs, pooled. --threads=1 keeps gprof's sampling coherent
# (gmon.out is per-process and its timers are per-thread-unaware).
i=1
while [ "$i" -le 3 ]; do
  echo "profile run $i/3..." >&2
  "$bin" --scale=bench --threads=1 ${1+"$@"} >/dev/null
  mv gmon.out "gmon.$i.out"
  i=$((i + 1))
done

{
  echo "# gprof flat profile: perf_hotpath --scale=bench (run 1 of 3)"
  echo "# built: RelWithDebInfo -pg ($(c++ --version | head -n1))"
  echo "# host: $(uname -sr)"
  echo
  gprof -b -p "$bin" gmon.1.out
  echo
  echo "# call graph (run 1, top entries)"
  echo
  gprof -b -q "$bin" gmon.1.out | head -n 120
  echo
  echo "# stability cross-check: top flat-profile lines of runs 2 and 3"
  for run in 2 3; do
    echo
    echo "## run $run"
    gprof -b -p "$bin" "gmon.$run.out" | sed -n '1,14p'
  done
} > "$out"

echo "wrote $out" >&2
