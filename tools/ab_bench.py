#!/usr/bin/env python3
"""Interleaved A/B runs of the repository benchmark between two revisions.

    python3 tools/ab_bench.py PARENT CHANGE --workload NAME [--pairs 10]
        [--seed 1] [--trace 0|1] [--scratch DIR]

Run from the repository root. PARENT and CHANGE are git revisions; the
revision "." stands for the working tree as it is (tracked files plus
untracked ones that .gitignore does not exclude). Each side is exported
(`git archive`, or a copy of the working tree) into its own directory
under the scratch directory and built there once with dune, so the
benchmark always builds what it runs from that side's source.

Pair i runs `perfbench/run.py --workload NAME --seed SEED+i --seconds S
--trace T`, unchanged, once on each side with the same seed, where S is
BENCHMARK.json's run_seconds; the side that runs first alternates
between pairs. Per metric the tool prints the
median and quartiles of each side, the pairs the change won, and a
verdict:

  better      at least 10 pairs, the change won at least 9 in 10 of
              them (ties count for neither side) and the medians differ
              by more than the parent's interquartile range;
  worse       the same rule the other way round, or (end-to-end metrics)
              the change's median is worse than the parent's by more
              than the metric's BENCHMARK.json bound;
  unresolved  the parent's own interquartile range is wider than the
              bound, and not every change run beats every parent run;
              or fewer than 10 pairs meet the win-count rule, which
              that few pairs cannot support;
  within      none of the above: no regression past the bound, no gain.

Per-layer metrics (--trace 1) have no bound, so they are better, worse
or unresolved. The tool also checks that both sides print the same
output digest for every seed, and reports failed operations.
"""

import argparse
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

DIGEST_RE = re.compile(r"output-digest=(\S+)")
MIN_PAIRS = 10


def die(msg):
    print("ab_bench: " + msg, file=sys.stderr)
    sys.exit(1)


def git(*args, **kw):
    return subprocess.run(["git"] + list(args), check=True, stdout=subprocess.PIPE, **kw).stdout


def export(rev, dest):
    """Materialise revision REV (or "." for the working tree) in DEST."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == ".":
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in names.decode().split("\0"):
            if name and os.path.isfile(name):
                target = os.path.join(dest, name)
                os.makedirs(os.path.dirname(target) or dest, exist_ok=True)
                shutil.copy2(name, target)
        return "working-tree"
    sha = git("rev-parse", "--verify", rev + "^{commit}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest)
    return sha


def build(side):
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "perfbench/main.exe", "bin/lll_cli.exe"],
        cwd=side["dir"], env=env).returncode
    if code != 0:
        die("build failed for %s" % side["label"])


def run_once(side, args, seconds, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
        cwd=side["dir"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.decode()
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(proc.stderr.decode()[-2000:])
        die("%s seed %d: no result line (exit %d)" % (side["label"], seed, proc.returncode))
    m = DIGEST_RE.search(out)
    return {
        "seed": seed,
        "exit": proc.returncode,
        "digest": m.group(1) if m else None,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[1], q[2]


def verdict(par, chg, better, bound):
    """PAR, CHG: per-pair values (same seeds, same order)."""
    n = len(par)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(par, chg) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(par, chg) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(par)
    _, cmed, _ = quartiles(chg)
    iqr = pq3 - pq1
    gain = sign * (cmed - pmed)
    need = math.ceil(0.9 * n)
    if wins >= need and gain > iqr:
        return wins, "better" if n >= MIN_PAIRS else "unresolved"
    if losses >= need and -gain > iqr:
        return wins, "worse" if n >= MIN_PAIRS else "unresolved"
    if bound is None:
        return wins, "unresolved"
    base = abs(pmed) if pmed != 0 else 1.0
    if -gain > bound * base:
        return wins, "worse"
    separated = (min(chg) > max(par)) if better == "higher" else (max(chg) < min(par))
    if iqr > bound * base and not separated:
        return wins, "unresolved"
    return wins, "within"


def fmt(x):
    if x == 0 or 0.01 <= abs(x) < 1e5:
        return "%.4g" % x
    return "%.3e" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "ab_bench"),
                    help="directory for the two checkouts (default: <tmp>/ab_bench)")
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        die("run from the repository root (BENCHMARK.json not found)")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    scratch = os.path.abspath(args.scratch)
    sides = []
    for label, rev in (("parent", args.parent), ("change", args.change)):
        d = os.path.join(scratch, label)
        sides.append({"label": label, "rev": export(rev, d), "dir": d})
    for side in sides:
        print("ab_bench: building %s (%s)" % (side["label"], side["rev"]), file=sys.stderr)
        build(side)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = sides if i % 2 == 0 else sides[::-1]
        for side in order:
            r = run_once(side, args, seconds, seed)
            runs[side["label"]].append(r)
            print("ab_bench: pair %d seed %d %s done" % (i + 1, seed, side["label"]), file=sys.stderr)

    par, chg = runs["parent"], runs["change"]
    print("workload %s, %d pairs, %d s runs, seeds %d-%d, trace %d"
          % (args.workload, args.pairs, seconds, args.seed, args.seed + args.pairs - 1, args.trace))
    print("parent %s, change %s" % (sides[0]["rev"], sides[1]["rev"]))
    if args.pairs < MIN_PAIRS:
        print("fewer than %d pairs: no gain or loss can be claimed from the pair count;"
              " a verdict that would rest on it reads unresolved" % MIN_PAIRS)
    print("%-28s %-6s %24s %24s %8s %5s  %s"
          % ("metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "verdict"))
    for name, spec in specs.items():
        p = [r["metrics"][name] for r in par]
        c = [r["metrics"][name] for r in chg]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        wins, v = verdict(p, c, spec["better"], spec.get("bound"))
        delta = "%+.1f%%" % (100 * (cmed - pmed) / pmed) if pmed else "-"
        print("%-28s %-6s %24s %24s %8s %2d/%-2d  %s"
              % (name, spec["unit"],
                 "%s [%s, %s]" % (fmt(pmed), fmt(pq1), fmt(pq3)),
                 "%s [%s, %s]" % (fmt(cmed), fmt(cq1), fmt(cq3)),
                 delta, wins, args.pairs, v))
    same = sum(1 for a, b in zip(par, chg) if a["digest"] is not None and a["digest"] == b["digest"])
    print("output digest identical in %d/%d pairs" % (same, args.pairs))
    for label, rs in runs.items():
        print("%s: %d attempted, %d failed, %d runs not correct, %d non-zero exits"
              % (label, sum(r["attempted"] for r in rs), sum(r["failed"] for r in rs),
                 sum(1 for r in rs if not r["correct"]), sum(1 for r in rs if r["exit"] != 0)))


if __name__ == "__main__":
    main()
