"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines; every tolerance is pinned here, nothing is calibrated later.
"""

import numpy as np
import pytest
from numpy.polynomial.chebyshev import Chebyshev

from mucsck.dh import TorusWeight
from mucsck.energy import (
    GeodesicPath,
    geodesic_convexity,
    muk_energy_chen_tian,
    muk_energy_endpoint_derivative,
    muk_energy_path,
    potential_from_profile,
    vector_field_path,
)
from mucsck.functionals import (
    C_functional,
    FunctionalContext,
    W_check,
    d2_mu_vol,
    futaki,
    lambda_inf,
    lambda_xi,
    log_vol,
    mu_vol,
    nu,
    properness_slope,
    sbar,
)
from mucsck.path import extremal_limit_check, lambda_freeze_estimate, trace
from mucsck.functionals import find_critical
from mucsck.solver import chi_zero_branch, flat_disk_limit_gap, solve_at, solve_chi
from mucsck.surfaces import SurfaceSpec

from oracles import central_diff, lambda_of_chi_p2blowup
from test_energy import random_admissible_profile

CP1 = SurfaceSpec.cp1(1.0)
RULED = SurfaceSpec.ruled(1, 0, 2.0)
P2 = SurfaceSpec.p2_blowup()


def report(num, text, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_phase_transition():
    ok = True
    for m in (1.0, 2.0):
        spec = SurfaceSpec.cp1(m)
        target = 4.0 / m
        est = lambda_freeze_estimate(spec, (target - 1.0, target + 1.0))
        ok &= abs(est - target) <= 1e-3
        ctx = FunctionalContext(spec)
        ok &= len(find_critical(ctx, target - 0.5)) == 1
        ok &= len(find_critical(ctx, target + 0.5)) == 3
    report(1, "lambda_freeze = 4/m within 1e-3 and counts 1/3 across it", ok)


def test_criterion_02_fano_threshold():
    val = lambda_inf(FunctionalContext(SurfaceSpec.cp1(2.0)))
    report(2, f"anticanonical threshold ratio = {val:.9f} (target 2, tol 1e-6)",
           abs(val - 2.0) <= 1e-6)


def test_criterion_03_ruled_chi_zero_limits():
    branch = chi_zero_branch(RULED, 1.0)
    c_plus = solve_at(RULED, 1.0, 1e-5)
    c_minus = solve_at(RULED, 1.0, -1e-5)
    c_lim = 0.5 * (c_plus.c + c_minus.c)
    dphi_lim = 0.5 * ((c_plus.residual + 1.0) + (c_minus.residual + 1.0))
    ok = abs(branch.c - 1.8) <= 1e-12 and abs(c_lim - 1.8) <= 1e-6
    ok &= abs(branch.residual + 1.0 - 11.0 / 15.0) <= 1e-12
    ok &= abs(dphi_lim - 11.0 / 15.0) <= 1e-6
    report(3, f"c -> {c_lim:.9f} (1.8), phi'(-m) -> {dphi_lim:.9f} (11/15), tol 1e-6", ok)


def test_criterion_04_existence_nonnegative_lambda():
    ok = True
    for lam, bracket in ((0.0, (-0.5, -0.1)), (1.0, (-1.0, -0.2)), (5.0, (-8.0, -4.0))):
        res = solve_chi(RULED, lam, bracket)
        ok &= abs(res.residual) <= 1e-10
        ok &= res.ode_sup_residual <= 1e-8
        ok &= res.positivity.verdict
    report(4, "certified positive solutions at lambda = 0, 1, 5 on the ruled surface", ok)


def test_criterion_05_soliton_extremal_path():
    grid = [1.0, 0.5, 0.0, -0.5, -1.0, -2.0, -4.0]
    pts = trace(P2, grid, (-1.0, -0.1))
    ok = all(p.ok for p in pts)
    ok &= all(abs(lambda_of_chi_p2blowup(p.chi) - p.lam) <= 1e-7 for p in pts)
    ok &= lambda_of_chi_p2blowup(-1.0) > 0.0
    sample = np.linspace(-3.0, -1e-3, 200)
    vals = [lambda_of_chi_p2blowup(c) for c in sample]
    ok &= all(b < a for a, b in zip(vals, vals[1:]))
    ok &= all(-0.2649 < p.chi < 0.0 for p in pts if p.lam < 0.0)
    soliton = next(p for p in pts if p.lam == 1.0)
    ok &= soliton.result.ode_sup_residual <= 1e-8
    report(5, "traced path matches lambda(chi) to 1e-7; soliton instance constant to 1e-8", ok)


def test_criterion_06_extremal_limit():
    lc2, ext = extremal_limit_check(P2, -100.0)
    lc3, _ = extremal_limit_check(P2, -1000.0)
    gap2 = abs(lc2 - ext) / abs(ext)
    gap3 = abs(lc3 - ext) / abs(ext)
    ok = gap3 <= 1e-2 and gap2 / gap3 >= 5.0
    report(6, f"lam*chi gap {gap3:.2e} at -1e3 (<= 1e-2), reduction x{gap2 / gap3:.1f} (>= 5)", ok)


def test_criterion_07_variational_formulas():
    rng = np.random.default_rng(7)
    ok = True
    for spec in (CP1, RULED):
        ctx = FunctionalContext(spec)
        for _ in range(50):
            chi = rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0])
            lam = rng.uniform(-4.0, 6.0)
            fd1 = central_diff(lambda c: log_vol(ctx, TorusWeight(c), lam), chi, 1e-5)
            an1 = futaki(ctx, TorusWeight(chi), TorusWeight(1.0), lam)
            ok &= abs(an1 - fd1) <= 1e-5 * max(abs(fd1), 1e-3)
            fd2 = central_diff(
                lambda c: futaki(ctx, TorusWeight(c), TorusWeight(1.0), lam), chi, 1e-4
            )
            an2 = d2_mu_vol(ctx, TorusWeight(chi), lam, TorusWeight(1.0))
            ok &= abs(an2 - fd2) <= 1e-5 * max(abs(fd2), 1e-3)
    report(7, "first/second variations match central differences (1e-5 rel, both surfaces)", ok)


def test_criterion_08_flat_disk_limit():
    gap = flat_disk_limit_gap(CP1, 50.0)
    report(8, f"sup |phi - 2 tau| on [0, 1.8] at chi=50 is {gap:.4g} (< 0.01)", gap < 0.01)


def test_criterion_09_properness():
    ctx = FunctionalContext(CP1)
    direction = TorusWeight(5.0)
    slopes = {lam: properness_slope(ctx, direction, lam, [50.0, 100.0])
              for lam in (-5.0, 0.0, 5.0)}
    ok = all(s > 0.0 for pair in slopes.values() for s in pair)
    ok &= all(abs(p[0] - p[1]) <= 0.05 * abs(p[1]) for p in slopes.values())
    at100 = [slopes[lam][1] for lam in (-5.0, 0.0, 5.0)]
    ok &= (max(at100) - min(at100)) <= 0.05 * max(at100)
    report(9, "t^-1 log Vol positive, stable in t (5%), lambda-independent at t=100 (5%)", ok)


def test_criterion_10_muk_energy():
    rng = np.random.default_rng(10)
    ok = True
    # two-route equivalence on 10 random admissible pairs
    for _ in range(10):
        u0 = potential_from_profile(random_admissible_profile(rng), CP1)
        u1 = potential_from_profile(random_admissible_profile(rng), CP1)
        w = TorusWeight(rng.uniform(-1.5, 1.5))
        lam = rng.uniform(-2.0, 6.0)
        m_path = muk_energy_path(CP1, w, lam, GeodesicPath(u0, u1))
        m_ct = muk_energy_chen_tian(CP1, w, lam, u0, u1)
        ok &= abs(m_path - m_ct) <= 1e-6
    # derivative at a certified solution
    res = solve_chi(CP1, 5.0, (0.1, 5.0))
    u_sol = potential_from_profile(res.profile, CP1)
    w_star = TorusWeight(res.chi)
    for _ in range(20):
        direction = Chebyshev(rng.normal(size=6) * 0.1, domain=[0.0, 2.0])
        ok &= abs(muk_energy_endpoint_derivative(CP1, w_star, 5.0, u_sol, direction)) <= 1e-6
    # convexity along a linear-in-potential geodesic
    u_fs = potential_from_profile(CP1.reference_profile(), CP1)
    second = geodesic_convexity(CP1, TorusWeight(0.0), 0.0, GeodesicPath(u_fs, u_sol),
                                np.linspace(0.0, 1.0, 21))
    ok &= all(s >= -1e-8 for s in second)
    # flow-generated geodesic slope equals minus the obstruction
    ctx = FunctionalContext(CP1)
    for chi_dir in (0.8, -1.3):
        slope = muk_energy_path(CP1, TorusWeight(0.5), 2.0, vector_field_path(u_fs, chi_dir))
        ok &= abs(slope + futaki(ctx, TorusWeight(0.5), TorusWeight(chi_dir), 2.0)) <= 1e-7
    report(10, "two energy routes agree (1e-6); criticality, convexity, slope identities", ok)


def test_criterion_11_invariance_suite():
    rng = np.random.default_rng(11)
    ok = True
    pairs = [
        (FunctionalContext(RULED), FunctionalContext(RULED, RULED.perturbed_profile(0.03))),
        (FunctionalContext(CP1), FunctionalContext(CP1, CP1.perturbed_profile(0.08))),
    ]
    for ctx_a, ctx_b in pairs:
        w = TorusWeight(-0.6)
        for lam in (0.0, 1.0):
            ok &= abs(sbar(ctx_a, w, lam) - sbar(ctx_b, w, lam)) <= 1e-8
            ok &= abs(futaki(ctx_a, w, TorusWeight(1.0), lam)
                      - futaki(ctx_b, w, TorusWeight(1.0), lam)) <= 1e-8
            ok &= abs(mu_vol(ctx_a, w, lam) - mu_vol(ctx_b, w, lam)) <= 1e-8
    ctx = FunctionalContext(RULED)
    shifted = ctx.with_shift(0.37)
    w = TorusWeight(-0.9)
    ok &= abs(mu_vol(ctx, w, 1.0) - mu_vol(shifted, w, 1.0)) <= 1e-12
    ok &= abs(futaki(ctx, w, w, 1.0) - futaki(shifted, w, w, 1.0)) <= 1e-12
    for _ in range(100):
        base = TorusWeight(rng.uniform(-3.0, 3.0))
        direction = TorusWeight(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0]))
        ok &= nu(ctx, base, direction) > 0.0
    for _ in range(10):
        wq = TorusWeight(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        ok &= abs(futaki(ctx, wq, wq, lambda_xi(ctx, wq))) <= 1e-9
    report(11, "metric independence, shift invariance, nu > 0, self-obstruction identity", ok)


def test_criterion_12_W_check_continuity():
    ctx = FunctionalContext(CP1)
    eta = TorusWeight(1.0)
    w0 = -2.0 * C_functional(ctx, eta)
    d1 = abs(W_check(ctx, eta, 1e-3) - w0)
    d2 = abs(W_check(ctx, eta, 5e-4) - w0)
    ok = d1 <= 1e-2 and d2 <= 0.5 * d1 + 1e-12
    report(12, f"|W-check - (-2C)| = {d1:.2e} at 1e-3, {d2:.2e} at 5e-4 (halved)", ok)
