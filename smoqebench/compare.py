#!/usr/bin/env python3
"""Compares two checkouts (a parent and a change) on the repository benchmark.

    python3 smoqebench/compare.py --parent ../parent --change . --pairs 10 --seed 9001

Each checkout builds and runs its own smoqebench/run.py; the benchmark
directories of both must be identical, because a change that claims a
gain may not edit the benchmark. Every workload of BENCHMARK.json runs
for its run_seconds. Pair i runs seed (--seed + i) on both sides, the
parent first on even pairs and the change first on odd ones. Pick a
--seed that was not used while the change was written (held out).

For every workload and metric it prints each side's median and quartiles,
the pairs the change won, and a verdict:

  gain          the change won >= 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                inter-quartile spread;
  regression    the change's median is worse than the parent's by more
                than the metric's bound in BENCHMARK.json;
  unresolved    the parent's own spread is wider than the bound and not
                every change run beats every parent run;
  same          none of the above.

Exit status: 0 when no end-to-end metric regressed, 1 otherwise.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys


def bench_digest(root):
    h = hashlib.sha256()
    base = os.path.join(root, "smoqebench")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_once(root, workload, seed, seconds, trace):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree
    cmd = [sys.executable, "smoqebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"compare.py: {root}: {workload} seed {seed} failed "
                 f"(exit {out.returncode}):\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"compare.py: {root}: {workload} seed {seed}: outputs incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    lower = better == "lower"
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    need = math.ceil(0.9 * len(parent))
    improved = c_med < p_med if lower else c_med > p_med
    if wins >= need and improved and abs(c_med - p_med) > (p_q3 - p_q1):
        return wins, "gain"
    if bound is not None and p_med != 0:
        worse = (c_med - p_med) / abs(p_med) if lower else (p_med - c_med) / abs(p_med)
        all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
        if (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
            return wins, "unresolved"
        if worse > bound:
            return wins, "regression"
    return wins, "same"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", default=".", help="root of the change checkout")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=9001, help="first held-out seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 compares the per-layer metrics (reported, no bounds)")
    args = ap.parse_args()
    if args.pairs < 10:
        sys.exit("compare.py: the gain rule needs at least 10 pairs")

    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if bench_digest(parent) != bench_digest(change):
        sys.exit("compare.py: smoqebench/ differs between the checkouts; "
                 "measure both with identical benchmark code")
    with open(os.path.join(change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    regressed = False
    for w in workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = parent if side == "parent" else change
                runs[side].append(run_once(root, w, seed, seconds, args.trace))
            print(f"# {w} pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr)
        print(f"\n{w}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
              f"{seconds:g} s per run")
        print(f"  {'metric':26s} {'parent median [q1, q3]':32s} "
              f"{'change median [q1, q3]':32s} {'wins':>6s}  verdict")
        for m in metrics:
            p = [r[m["name"]] for r in runs["parent"]]
            c = [r[m["name"]] for r in runs["change"]]
            wins, v = verdict(p, c, m["better"], m.get("bound"))
            if v == "regression" and "bound" in m:
                regressed = True
            pq, cq = quartiles(p), quartiles(c)
            ps = f"{pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
            cs = f"{cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}]"
            print(f"  {m['name']:26s} {ps:32s} {cs:32s} {wins:3d}/{args.pairs}  "
                  f"{v} ({m['unit']}, {m['better']} is better)")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
