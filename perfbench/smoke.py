#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke.py

Run from the repository root. For each workload in BENCHMARK.json it runs
run.py with --tiny, untraced twice with one seed and traced once, and
checks: exit code 0, correct = true, zero failures, printed metric names
equal to BENCHMARK.json's (end_to_end untraced, per_layer traced), equal
output digests for equal seeds, and no temporary run directory left
behind. Prints one line per check and exits non-zero on the first failure.
"""

import glob
import json
import subprocess
import sys


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        sys.stderr.write(p.stderr[-4000:])
        sys.exit("smoke: %s trace=%d exited %d" % (workload, trace, p.returncode))
    lines = p.stdout.rstrip("\n").split("\n")
    digest = next((l.split("output-digest=")[1] for l in lines if "output-digest=" in l), None)
    return json.loads(lines[-1]), digest


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in (x["name"] for x in bench["workloads"]):
        digests = []
        for trace, seed in ((0, 7), (0, 7), (1, 8)):
            result, digest = run(w, seed, trace)
            key = "per_layer" if trace else "end_to_end"
            want = [m["name"] for m in bench[key]]
            assert result["correct"] and result["failed"] == 0, (w, trace, result)
            assert result["attempted"] >= 1, (w, trace, result)
            assert sorted(result["metrics"]) == sorted(want), (w, trace, sorted(result["metrics"]))
            if trace == 0:
                digests.append(digest)
            print("smoke: %-12s trace=%d seed=%d ok (%d operations)" % (w, trace, seed, result["attempted"]))
        assert digests[0] is not None and digests[0] == digests[1], (w, digests)
        print("smoke: %-12s output digest repeats for one seed (%s)" % (w, digests[0]))
        left = glob.glob(".perfbench_run/run-*")
        assert not left, ("temporary directories left behind", left)
    print("smoke: all workloads ok")


if __name__ == "__main__":
    main()
