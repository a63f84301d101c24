"""Benchmark of mucsck, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: critical_phase, continuation,
certify_mp, energy_trace (see bench/README.md).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.

This process imports only the standard library.  It starts the worker
processes with the BLAS/OpenMP thread pools limited to one thread, times
their set-up from spawn to the first timed job (two set-up probes and the
measuring worker, median of the three), and writes a record of the run to
.bench_out/runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("critical_phase", "continuation", "certify_mp", "energy_trace")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 2
TIME_LIMIT = 170.0
END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_p50_ms", "ms"),
              ("peak_rss_mb", "MB"))


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, extra, deadline):
    """Run one worker to completion; returns its last JSON line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({v: "1" for v in THREAD_VARS})
    t0 = monotonic()
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0)] + extra
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - t0), check=False)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mucsck", "__init__.py")):
        print("bench: no mucsck sources under src/; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = monotonic() + TIME_LIMIT
    try:
        probes = [] if args.trace else [
            spawn(args, ["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        run = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    run["setup_samples_s"] = probes + [run["setup_s"]]
    if args.trace:
        metrics = run["per_layer"]
    else:
        run["setup_s"] = statistics.median(run["setup_samples_s"])
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END}
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    record = os.path.join(
        OUT, "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(dict(run, workload=args.workload, seed=args.seed, seconds=args.seconds), fh,
                  indent=1)
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
