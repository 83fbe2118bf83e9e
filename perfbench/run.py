#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. Builds the benchmark executable and the
`lll_cli` server from source with dune, runs one workload, checks that
the metric names and units it printed are exactly those listed in
BENCHMARK.json (end_to_end with --trace 0, per_layer with --trace 1),
and passes the program's output through: its last line is the result
JSON. Exits non-zero, without a result line, if the build fails, the
run fails or times out, or the names disagree. Every process the run
starts lives in its own session and is killed before this script exits.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORK_DIR = ".perfbench_run"
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
CLI = os.path.join("_build", "default", "bin", "lll_cli.exe")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(argv, timeout, **kw):
    """Run argv in its own session; kill the whole session on exit."""
    proc = subprocess.Popen(argv, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        return None, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait()


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in bench[key]}, [w["name"] for w in bench["workloads"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = ap.parse_args()

    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (BENCHMARK.json not found)")
    expected, workloads = expected_metrics(args.trace)
    if args.workload not in workloads:
        fail("unknown workload %r (BENCHMARK.json lists %s)" % (args.workload, workloads))

    # build from source; no shared dune cache, so nothing is written
    # outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    t0 = time.monotonic()
    code, _ = run_group(
        ["dune", "build", "--root", ".", "--display", "quiet", EXE, CLI],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail("build failed" if code is not None else "build timed out", 2)
    build_s = time.monotonic() - t0

    argv = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", CLI,
        "--work-dir", WORK_DIR,
    ] + (["--tiny"] if args.tiny else [])
    # a no-op build leaves the whole run under 180 s; after a real build
    # (the first run in a checkout) the run still gets its full time
    run_timeout = RUN_TIMEOUT_S - build_s if build_s < 30 else RUN_TIMEOUT_S
    code, out = run_group(argv, run_timeout, stdout=subprocess.PIPE, env=env)
    if code is None:
        fail("run timed out", 3)
    lines = out.decode().rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(out.decode())
        fail("no result line (exit code %d)" % code, 3)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result), 3)
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != expected:
        missing = sorted(set(expected) - set(printed))
        extra = sorted(set(printed) - set(expected))
        units = sorted(k for k in set(printed) & set(expected) if printed[k] != expected[k])
        fail("metrics disagree with BENCHMARK.json: missing %s, extra %s, unit mismatch %s"
             % (missing, extra, units), 3)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
