#!/usr/bin/env python3
"""Build the checkout and run its benchmark.

Three modes:

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload (check_corpus, lint_heavy, serve_edits).
      Builds the program from source first. The last line of standard
      output is the result: {"correct", "attempted", "failed", "metrics"}.
      Exits non-zero on any wrong or non-identical answer.

  run.py --repeat N --workload W [--seed FIRST] [--seconds S] [--out FILE]
      N runs with seeds FIRST..FIRST+N-1 (tracing off). Prints, per
      end-to-end metric, the median, the quartiles and the spread
      (quartile distance over median) against the metric's bound, and
      appends every result, tagged with workload and seed, to FILE.

  run.py --compare PARENT.jsonl CHANGE.jsonl
      Two result sets written by --repeat, one per commit, taken in
      alternating order (parent first on odd pairs, change first on even
      ones; see README.md). Per workload and metric: both medians and
      quartiles, the change's win share over pairs of equal seed, and a
      verdict: improved, unchanged, unresolved or worse.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
SHELLEY = os.path.join("_build", "default", "bin", "shelley.exe")


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune is not installed")


def build():
    """Build the benchmark and the CLI it drives; build output goes to stderr."""
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        sys.exit("run.py: no dune-project here; run from the root of a shelley checkout")
    cmd = dune() + ["build", "--root", ".", "./perfbench/perfbench.exe", "./bin/shelley.exe"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(done.returncode)


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (exit code, stdout)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--shelley", SHELLEY]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def repeat(args):
    build()
    spec = benchmark_spec()
    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        code, out = run_once(args.workload, seed, args.seconds, 0)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if code != 0 or not result.get("correct"):
            sys.exit(f"run.py: {args.workload} seed {seed} failed (exit {code})")
        result.update(workload=args.workload, seed=seed)
        results.append(result)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps(result) + "\n")
    print(f"{args.workload}: {len(results)} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
    print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = quartiles(values)
        print(f"  {m['name']:18} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread(values):8.3f} "
              f"{m['bound']:6.2f}")


def better(metric, a, b):
    """True when value a is better than value b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def verdict(metric, parent, change):
    """The choosing-metrics rule: a gain needs nine wins in ten pairs and a
    median shift larger than the parent's own quartile distance; a metric
    whose spread exceeds its bound is unresolved unless every change run
    beats every parent run."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(metric, c, p))
    share = wins / len(pairs) if pairs else 0.0
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    shift = cmed - pmed
    worse_by = (shift if metric["better"] == "lower" else -shift) / pmed if pmed else 0.0
    if share >= 0.9 and abs(shift) > p3 - p1 and better(metric, cmed, pmed):
        return share, "improved"
    all_better = all(better(metric, c, p) for c in change for p in parent)
    if spread(parent) > metric["bound"] and not all_better:
        return share, "unresolved"
    if worse_by > metric["bound"]:
        return share, "worse"
    return share, "unchanged"


def load(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                by_workload.setdefault(r["workload"], {})[r["seed"]] = r
    return by_workload


def compare(args):
    spec = benchmark_spec()
    parent, change = load(args.compare[0]), load(args.compare[1])
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        print(f"{workload}: {len(seeds)} pairs")
        print(f"  {'metric':18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
              f"{'wins':>5}  verdict")
        for m in spec["end_to_end"]:
            p = [parent[workload][s]["metrics"][m["name"]]["value"] for s in seeds]
            c = [change[workload][s]["metrics"][m["name"]]["value"] for s in seeds]
            pq, cq = quartiles(p), quartiles(c)
            share, v = verdict(m, p, c)
            print(f"  {m['name']:18} {pq[1]:12.4f} [{pq[0]:9.4f}, {pq[2]:9.4f}] "
                  f"{cq[1]:12.4f} [{cq[0]:9.4f}, {cq[2]:9.4f}] {share:5.2f}  {v}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    if args.compare:
        return compare(args)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.repeat:
        return repeat(args)
    build()
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
