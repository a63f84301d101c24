"""One benchmark process: set-up, warm-up, then the timed stream of jobs.

Started by run.py, which passes the CLOCK_MONOTONIC reading taken just
before the process was spawned (--t0); set-up time runs from there to the
first timed job.  With --probe the process stops after set-up.  The last
line of standard output is one JSON object.

Times are reported at a fixed machine speed.  The speed this machine gives a
process drifts by 20 % and more within seconds, in CPU time as much as in
wall time, so a fixed reference computation is timed between jobs and every
job's time is scaled by the reference's local median over REF_NOMINAL_S.
The run record keeps the raw times too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MAX_LOGGED = 20
REF_EVERY_S = 0.25  # job time between two reference samples
REF_WINDOW = 3  # a job's speed is the median of the samples within 3 of its own
REF_NOMINAL_S = 0.007  # reference time that defines the reporting speed
SETUP_REF_SAMPLES = 7


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def versions():
    import mpmath
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Speed:
    """The machine's speed along a run, from a fixed reference computation.

    The reference mixes the kinds of work the program does: extended-precision
    scalar arithmetic (the benchmark's own shooting residual), a vectorized
    exponential and matrix-vector product, and a loop of small numpy calls.
    """

    def __init__(self):
        import numpy as np

        import oracle

        self.np = np
        self.surface = oracle.Surface("Ruled", 1.0, 2, 1)
        self.grid = np.linspace(-1.0, 0.0, 4096)
        self.chis = np.linspace(-3.0, 3.0, 64)
        self.rows = np.array([[1.0, 2.0, 0.5], [0.3, 1.0, 2.0], [2.0, 0.1, 1.0]])
        self.samples = []
        self.job_sample = []  # per job: index of the last sample before it

    def sample(self):
        np = self.np
        start = time.perf_counter()
        for chi in (-0.7, -0.8, -0.9):
            self.surface.residual(1.0, chi)
        np.exp(-self.chis[:, None] * self.grid[None, :]) @ self.grid
        for i in range(100):
            np.linalg.solve(self.rows, np.polynomial.polynomial.polyval(self.grid[:3], (i, 1.0, 2.0)))
        self.samples.append(time.perf_counter() - start)

    def mark_job(self):
        self.job_sample.append(len(self.samples) - 1)

    def factor(self, k):
        """Local slowdown around sample k: reference median over REF_NOMINAL_S."""
        window = self.samples[max(0, k - REF_WINDOW):k + REF_WINDOW + 1]
        return statistics.median(window) / REF_NOMINAL_S

    def job_factors(self):
        return [self.factor(k) for k in self.job_sample]


def run_job(job, tracer=None):
    """(seconds, output or exception); only `job.run` is timed."""
    job.prepare()
    rec = tracer.span("job." + job.kind) if tracer else None
    start = time.perf_counter()
    try:
        ret = job.run()
    except Exception as exc:  # a program failure is a failed operation, not a crash
        ret = exc
    elapsed = time.perf_counter() - start
    if rec:
        tracer.close(rec)
    if isinstance(ret, Exception):
        return elapsed, ret
    try:
        return elapsed, job.result(ret)
    except Exception as exc:
        return elapsed, exc


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.rejected = 0
        self.times = []
        self.kinds = []

    def add(self, job, elapsed, out, checks):
        self.attempted += 1
        self.times.append(elapsed)
        self.kinds.append(job.kind)
        problem = None
        if isinstance(out, Exception):
            problem = f"{type(out).__name__}: {out}"
        else:
            try:
                job.check(out)
            except checks.Rejected as exc:
                self.rejected += 1
                problem = f"rejected: {exc}"
        if problem is not None:
            self.failed += 1
            if self.failed <= MAX_LOGGED:
                print(f"job {job.kind} failed: {problem}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    t0 = monotonic() if args.t0 is None else args.t0

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pool = workloads.make_pool(args.workload, args.seed, workdir)
        warm = Tally()
        seen = set()
        for job in (j for rnd in pool for j in rnd):
            if job.kind not in seen:
                seen.add(job.kind)
                warm.add(job, *run_job(job), checks)
        gc.collect()
        gc.freeze()
        raw_setup_s = monotonic() - t0
        speed = Speed()
        for _ in range(SETUP_REF_SAMPLES):
            speed.sample()
        setup_factor = speed.factor(SETUP_REF_SAMPLES // 2)
        speed.samples.clear()
        setup = {"setup_s": raw_setup_s / setup_factor, "raw_setup_s": raw_setup_s,
                 "setup_speed_factor": setup_factor}
        if args.probe:
            print(json.dumps(setup))
            return 0

        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
        tally = Tally()
        timed = 0.0
        since_ref = REF_EVERY_S
        passes = 0
        while True:
            for rnd in pool:
                for job in rnd:
                    if since_ref >= REF_EVERY_S:
                        speed.sample()
                        since_ref = 0.0
                    speed.mark_job()
                    gc.collect()
                    elapsed, out = run_job(job, tracer)
                    timed += elapsed
                    since_ref += elapsed
                    tally.add(job, elapsed, out, checks)
                if not tracer and timed >= args.seconds:
                    break
            else:
                passes += 1
            if timed >= args.seconds:
                break
        speed.sample()
        if tracer:
            tracer.uninstall()

        factors = speed.job_factors()
        scaled = [t / f for t, f in zip(tally.times, factors)]
        result = dict(setup, **{
            "correct": warm.rejected == 0 and tally.rejected == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "timed_s": timed,
            "passes": passes,
            "jobs_per_s": (tally.attempted - tally.failed) / sum(scaled),
            "job_p50_ms": 1000.0 * statistics.median(scaled),
            "raw_jobs_per_s": (tally.attempted - tally.failed) / timed,
            "raw_job_p50_ms": 1000.0 * statistics.median(tally.times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": versions(),
            "job_ms": [[k, round(1000.0 * t, 3)] for k, t in zip(tally.kinds, tally.times)],
            "speed_factors": [round(f, 4) for f in factors],
            "ref_ms": [round(1000.0 * t, 4) for t in speed.samples],
        })
        if tracer:
            values = tracer.metrics(factors)
            result["per_layer"] = {name: {"value": values[name], "unit": unit}
                                   for name, unit, _ in tracing.PER_LAYER}
            result["trace_file"] = os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(result["trace_file"], {
                "workload": args.workload, "seed": args.seed, "speed_factors": factors,
                **{k: result[k] for k in ("attempted", "timed_s", "passes", "jobs_per_s",
                                          "raw_jobs_per_s", "versions")}})
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
