"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmarks/run.py --workload exact-protocol --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh
interpreter (workloads.py) with the BLAS thread count fixed in its
environment.  An untraced run first starts that interpreter SETUP_RUNS - 1
times to measure set-up only, then once more for the timed loop, and
reports the median set-up time with the loop's metrics.  A traced run
(--trace 1) reports the per-layer metrics instead and writes its spans to
benchmarks/out/.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("exact-protocol", "coefficients-cli", "profile-search")
SETUP_RUNS = 3
BLAS_THREADS = 2
TIME_LIMIT_S = 170


def _child_env() -> dict:
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def _run_child(args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.monotonic())]
    done = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if done.returncode != 0:
        raise SystemExit(f"error: workload process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run stops its workload process too: subprocess.run kills
    # the child when SystemExit interrupts the wait
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "xxqst").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not args.trace:
        setups = [_run_child(args, deadline, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
    run = _run_child(args, deadline)
    setups.append(run["setup_s"])

    for line in run["failures"] + run["problems"][:20]:
        print(line, file=sys.stderr)
    if args.trace:
        metrics = run["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": run["ops_per_s"], "unit": "1/s"},
            "op_tail_s": {"value": run["op_tail_s"], "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }
    record = {**result, "setups_s": setups, "run": run}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
