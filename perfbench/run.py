#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sim_mem --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which pulls the simulator sources in from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls rebuild incrementally. Build output and the harness's
human-readable report go to stderr. The last line of stdout is the result:
one JSON object with the keys correct, attempted, failed and metrics.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_mem", "sim_core", "fig4", "fig2_mt")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "machine.hpp")):
        fail(f"simulator sources not found under {ROOT}/src")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cfg, stdout=sys.stderr, cwd=ROOT) != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "dsm_perfbench",
           "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
        fail("build failed")
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own smoke checks")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    build_dir = build()
    exe = os.path.join(build_dir, "dsm_perfbench")
    if args.self_test:
        sys.exit(subprocess.call([exe, "--self-test"], cwd=ROOT,
                                 stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S))

    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append("--spans=" + os.path.join(build_dir,
                                             f"spans_{args.workload}.json"))
    # stdout carries the figure renderers' tables (discarded here) and, on
    # its last line, the result object.
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        fail(f"dsm_perfbench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1]) if lines else None
    if not isinstance(result, dict) or sorted(result) != [
            "attempted", "correct", "failed", "metrics"]:
        fail("dsm_perfbench printed no result object")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
