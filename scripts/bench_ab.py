#!/usr/bin/env python3
"""A/B of two checkouts on one perfbench workload (perfbench/README.md rule).

    scripts/bench_ab.py BASE_CHECKOUT NEW_CHECKOUT --workload W \\
        [--pairs 10] [--seconds 50]

Runs `python3 perfbench/run.py --trace 0` in each checkout, pair after pair:
pair i uses seed i + 1 on both sides (so the first pair, seed 1, also checks
perfbench/reference.txt), and the side that runs first alternates. Each
checkout builds into its own .bench_build/ (CARGO_TARGET_DIR is unset, or
both would share one build directory).

For every end-to-end metric in the base checkout's BENCHMARK.json it prints
both sides' median and quartiles, the pairs the new side won (ties count
for neither) and a verdict:
  gain          wins >= 9 of 10 and the median gap exceeds the base's
                quartile spread
  regression    the new median is worse than the base's by more than the
                metric's bound (a share of the base median)
  within bound  otherwise
Exits 1 if any run fails or reports "correct": false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run(checkout, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, base, new, wins):
    lower = metric["better"] == "lower"
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    gap = bmed - nmed if lower else nmed - bmed
    if wins * 10 >= 9 * len(base) and gap > b3 - b1:
        return "gain"
    if -gap > metric["bound"] * abs(bmed):
        return "regression"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50)
    args = ap.parse_args()
    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    results = {"base": [], "new": []}
    ok = True
    for i in range(args.pairs):
        seed = i + 1
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for side in order:
            r = run(getattr(args, side), args.workload, seed, args.seconds)
            good = r is not None and r.get("correct") is True
            ok = ok and good
            if r is not None:
                results[side].append(r["metrics"])
            shown = {m["name"]: r["metrics"][m["name"]]["value"]
                     for m in metrics} if r else "run failed"
            print(f"pair {i + 1} seed {seed} {side}: correct={good} {shown}",
                  file=sys.stderr, flush=True)
    if not ok or len(results["base"]) != len(results["new"]):
        print("bench_ab: a run failed or reported correct: false",
              file=sys.stderr)
        sys.exit(1)

    print(f"{args.workload}: {args.pairs} pairs, {args.seconds:g} s runs")
    print(f"{'metric':<14}{'base q1/med/q3':>28}{'new q1/med/q3':>28}"
          f"{'wins':>7}  verdict")
    for m in metrics:
        name = m["name"]
        base = [r[name]["value"] for r in results["base"]]
        new = [r[name]["value"] for r in results["new"]]
        lower = m["better"] == "lower"
        wins = sum(1 for b, n in zip(base, new)
                   if (n < b if lower else n > b))
        fmt = lambda xs: "/".join(f"{q:.4g}" for q in quartiles(xs))
        print(f"{name:<14}{fmt(base):>28}{fmt(new):>28}"
              f"{wins:>4}/{len(base):<2}  {verdict(m, base, new, wins)}")


if __name__ == "__main__":
    main()
