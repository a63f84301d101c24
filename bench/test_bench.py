"""Self-tests of the benchmark: checkers, oracle, tracing, and the command.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mpmath import mp  # noqa: E402

CHI_SHIFT = 1e-6
VALUE_SHIFT = 1e-8


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench"))


def _output(job):
    job.prepare()
    return job.result(job.run())


def _first(pool, kind, pred=lambda job: True):
    return next(j for rnd in pool for j in rnd if j.kind == kind and pred(j))


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    return {name: workloads.make_pool(name, 7, str(tmp_path_factory.mktemp(name)))
            for name in workloads.WORKLOADS}


# -- every checker accepts the program's output and rejects a perturbed one -----------


def test_solve_float_and_mp(pools):
    for name in ("continuation", "certify_mp"):
        job = _first(pools[name], "solve")
        out = _output(job)
        job.check(out)
        bad = dict(out, chi=out["chi"] + CHI_SHIFT)
        with pytest.raises(checks.Rejected):
            job.check(bad)


def test_path_rejects_moved_chi(pools):
    job = _first(pools["continuation"], "path")
    rows = _output(job)
    job.check(rows)
    bad = copy.deepcopy(rows)
    bad[5]["chi"] = repr(float(bad[5]["chi"]) + CHI_SHIFT)
    with pytest.raises(checks.Rejected):
        job.check(bad)


def test_muvol_rejects_moved_value_and_critical_point(pools):
    job = _first(pools["critical_phase"], "muvol",
                 lambda j: j.cfg["lambda"] * j.cfg["surface"]["m"] > 4)
    rows = _output(job)
    job.check(rows)
    for key, shift in (("mu_vol", VALUE_SHIFT), ("d_mu_vol", VALUE_SHIFT)):
        bad = copy.deepcopy(rows)
        bad[3][key] = repr(float(bad[3][key]) + shift)
        with pytest.raises(checks.Rejected):
            job.check(bad)
    bad = copy.deepcopy(rows)
    crit = next(r for r in bad if r["kind"] == "critical" and float(r["chi"]) != 0.0)
    crit["chi"] = repr(float(crit["chi"]) + CHI_SHIFT)
    with pytest.raises(checks.Rejected):
        job.check(bad)


def test_phase_rejects_moved_critical_point_and_transition(pools):
    job = _first(pools["critical_phase"], "phase")
    blob = _output(job)
    job.check(blob)
    bad = copy.deepcopy(blob)
    bad["classifications"][-1][0]["chi"] += CHI_SHIFT
    with pytest.raises(checks.Rejected):
        job.check(bad)
    bad = dict(blob, transition_lambda=blob["transition_lambda"] + 2e-3)
    with pytest.raises(checks.Rejected):
        job.check(bad)


def test_futaki_rejects_moved_values(pools):
    job = _first(pools["critical_phase"], "futaki")
    blob = _output(job)
    job.check(blob)
    for key in ("log_vol", "futaki_self", "futaki_dir"):
        with pytest.raises(checks.Rejected):
            job.check(dict(blob, **{key: blob[key] + VALUE_SHIFT}))


def test_energy_rejects_negative_second_difference_and_nonzero_start(pools):
    job = _first(pools["energy_trace"], "energy")
    rows = _output(job)
    job.check(rows)
    bad = copy.deepcopy(rows)
    mid = len(bad) // 2
    left, right = float(bad[mid - 1]["M_value"]), float(bad[mid + 1]["M_value"])
    bad[mid]["M_value"] = repr(0.5 * (left + right) + 1e-7)
    with pytest.raises(checks.Rejected):
        job.check(bad)
    bad = copy.deepcopy(rows)
    bad[0]["M_value"] = "1e-9"
    with pytest.raises(checks.Rejected):
        job.check(bad)


@pytest.mark.parametrize("kind, key", [("two_route", "chen_tian"), ("flow", "flow_slope")])
def test_energy_api_jobs_reject_moved_values(pools, kind, key):
    job = _first(pools["energy_trace"], kind)
    out = _output(job)
    job.check(out)
    with pytest.raises(checks.Rejected):
        job.check(dict(out, **{key: out[key] + 1e-5}))


# -- the oracle agrees with itself along independent routes ------------------------------


@pytest.mark.parametrize("chi", [-4.0, -0.7, -0.05, -0.004, 0.6, 3.0])
def test_shooting_residual_matches_closed_forms(chi):
    cp1 = oracle.Surface("CP1", 1.0)
    closed = float(oracle.cp1_lambda_of_chi(chi))
    assert oracle.lambda_at(cp1, chi) == pytest.approx(closed, rel=1e-12)
    if chi < 0:
        p2 = oracle.Surface("Ruled", 2.0, 1, 0)
        closed = float(oracle.p2_lambda_of_chi(chi))
        assert oracle.lambda_at(p2, chi) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("surface",
                         [oracle.Surface("CP1", 1.7), oracle.Surface("Ruled", 0.8, 3, 2)])
def test_log_mass_and_muvol_derivative_by_quadrature(surface):
    with mp.workdps(30):
        for chi in (-2.3, 0.0, 1.1):
            k = 0 if surface.kind == "CP1" else surface.k
            scale = mp.pi if surface.kind == "CP1" else 2 * mp.pi
            val = scale * mp.quad(lambda t: (1 - k * t) * mp.exp(-chi * t),
                                  [surface.lo, surface.hi])
            got = float(oracle.log_mass(surface, chi))
            assert got == pytest.approx(float(mp.log(val)), rel=1e-14)
        m, lam, chi = 1.3, 4.5, 0.8
        fd = mp.diff(lambda x: oracle.muvol_cp1(lam, x, m), chi)
        # mu_vol is the sign-flipped log-volume up to a chi-independent constant
        assert float(oracle.dmuvol_cp1(lam, chi, m)) == pytest.approx(-float(fd), rel=1e-12)


# -- tracing ---------------------------------------------------------------------------


def test_wrappers_sit_where_names_are_looked_up():
    import mucsck.path
    import mucsck.solver

    original = mucsck.solver.residual
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert mucsck.path.residual is mucsck.solver.residual
        assert mucsck.solver.residual is not original
    finally:
        tracer.uninstall()
    assert mucsck.solver.residual is original and mucsck.path.residual is original


def _counts(pool):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        jobs = [job for job in pool[0]]
        for job in jobs:
            _output(job)
    finally:
        tracer.uninstall()
    values = tracer.metrics([1.0] * len(jobs))
    return {name: values[name] for name, unit, _ in tracing.PER_LAYER if unit != "ms"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_per_layer_counts_repeat_exactly(name, pools):
    first = _counts(pools[name])
    assert first == _counts(pools[name])
    assert any(v for v in first.values())


def test_benchmark_file_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        blob = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in blob["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in blob["workloads"]] == list(workloads.WORKLOADS)


# -- the command -----------------------------------------------------------------------


def test_pools_repeat_for_a_seed(workdir):
    a = workloads.make_pool("continuation", 3, workdir)
    b = workloads.make_pool("continuation", 3, workdir)
    assert [[j.cfg for j in r] for r in a] == [[j.cfg for j in r] for r in b]


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "continuation",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
