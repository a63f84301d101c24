import numpy as np
import pytest
from scipy.optimize import brentq

import mucsck.functionals
import mucsck.path
from mucsck.dh import TorusWeight
from mucsck.functionals import FunctionalContext, find_critical, lambda_xi
from mucsck.path import (
    PhaseDiagram,
    WindowExhaustedError,
    extremal_limit_check,
    lambda_freeze_estimate,
    phase_diagram,
    tau0_positivity,
    trace,
)
from mucsck.solver import residual, solve_chi, solve_coefficients
from mucsck.surfaces import SurfaceSpec

from oracles import lambda_of_chi_p2blowup, tau0_sign_polynomials

P2 = SurfaceSpec.p2_blowup()
CP1 = SurfaceSpec.cp1(1.0)

# frozen regression: uniqueness threshold on the ruled surface 2 pi (F + 2B)
RULED_LAMBDA_FREEZE = 2.9701


# -- the closed form ---------------------------------------------------------------


def test_lambda_at_minus_one_positive():
    assert lambda_of_chi_p2blowup(-1.0) > 0.0


def test_lambda_diverges_at_origin():
    assert lambda_of_chi_p2blowup(-1e-3) < -500.0
    assert lambda_of_chi_p2blowup(-1e-4) < lambda_of_chi_p2blowup(-1e-3) * 9


def test_lambda_monotone_decreasing():
    grid = np.linspace(-5.0, -1e-3, 400)
    vals = [lambda_of_chi_p2blowup(c) for c in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_lambda_continuous_across_mp_cutoff():
    # |chi| = 0.05 was a float/mpmath switch; the expected values are the
    # 40-digit closed form, which double precision misses by up to 7.5e-9
    vals = [lambda_of_chi_p2blowup(c) for c in (-0.0499999, -0.05, -0.0500001)]
    expect = (-8.816149394574884, -8.816127594747602, -8.816105795007593)
    assert vals == pytest.approx(expect, rel=1e-15)
    # the step that crosses 0.05 matches the one beside it up to the curvature
    # of lambda(chi): lambda''/lambda' is about 40 here, so they differ by 4e-6
    step_across, step_beside = vals[1] - vals[0], vals[2] - vals[1]
    assert step_across > 0.0 and step_beside > 0.0
    assert abs(step_across - step_beside) <= 1e-5 * step_beside


def test_lambda_rejects_nonnegative_chi():
    with pytest.raises(ValueError):
        lambda_of_chi_p2blowup(0.5)


# -- tracing -----------------------------------------------------------------------


def test_soliton_point():
    pts = trace(P2, [1.0], (-1.0, -0.1))
    root = brentq(lambda c: lambda_of_chi_p2blowup(c) - 1.0, -1.5, -0.3, xtol=1e-14)
    assert pts[0].ok
    assert pts[0].chi == pytest.approx(root, abs=1e-8)
    # the soliton instance: weighted curvature constant on the whole grid
    assert pts[0].result.ode_sup_residual <= 1e-8


def test_path_negative_lambda_window_and_closed_form():
    grid = [1.0, 0.5, 0.0, -1.0, -3.0, -10.0]
    pts = trace(P2, grid, (-1.0, -0.1))
    for p in pts:
        assert p.ok and p.result.certified
        assert abs(lambda_of_chi_p2blowup(p.chi) - p.lam) <= 1e-7
        if p.lam < 0.0:
            assert -0.2649 < p.chi < 0.0


def test_trace_grid_refinement_stable():
    coarse = trace(P2, [1.0, 0.0, -1.0], (-1.0, -0.1))
    fine = trace(P2, [1.0, 0.5, 0.0, -0.5, -1.0], (-1.0, -0.1))
    fine_by_lam = {p.lam: p.chi for p in fine}
    for p in coarse:
        assert abs(fine_by_lam[p.lam] - p.chi) <= 1e-8


def test_trace_line_branch_grows():
    pts = trace(CP1, [5.0, 6.0, 8.0], (0.1, 5.0))
    chis = [p.chi for p in pts]
    assert all(p.ok for p in pts)
    assert chis[0] < chis[1] < chis[2]


def test_nonzero_criticals_match_solver_roots():
    # lam = lambda_xi: every nonzero critical point is a root of the shooting
    # residual, which the solver finds on its own in a +-5 % bracket
    for lam in (5.0, 6.0):
        crit = [c for c in find_critical(FunctionalContext(CP1), lam) if c != 0.0]
        assert len(crit) == 2
        for c in crit:
            res = solve_chi(CP1, lam, tuple(sorted((0.95 * c, 1.05 * c))))
            assert c == pytest.approx(res.chi, abs=1e-8)


@pytest.mark.parametrize("spec, grid, seed", [
    (CP1, [5.0, 6.0, 8.0], (0.1, 5.0)),
    (P2, np.linspace(-1.0, -8.0, 8), (-1.0, -0.1)),
], ids=["cp1", "p2_blowup"])
def test_traced_roots_are_critical_points_bit_for_bit(spec, grid, seed):
    # after the first point trace takes the obstruction_root of a bracket of
    # critical_brackets, the one find_critical refines for the same root
    ctx = FunctionalContext(spec)
    pts = trace(spec, grid, seed)
    assert all(p.ok for p in pts)
    for p in pts[1:]:
        assert p.chi in find_critical(ctx, p.lam), p.lam


@pytest.mark.parametrize("spec", [CP1, SurfaceSpec.cp1(2.5), P2, SurfaceSpec.ruled(2, 1, 1.5),
                                  SurfaceSpec.ruled(3, 0, 0.5)],
                         ids=["cp1", "cp1_2.5", "p2_blowup", "ruled_2_1_1.5", "ruled_3_0_0.5"])
def test_solver_lambda_equals_lambda_xi(spec):
    # the shooting residual is affine in lam, so its root in lam at fixed chi
    # is one secant step; it is the functionals' lambda_xi (Futaki / nu)
    ctx = FunctionalContext(spec)
    mags = np.geomspace(0.3, 10.0 / (spec.tau_hi - spec.tau_lo), 7)
    for chi in np.concatenate([-mags, mags]):
        w = TorusWeight(float(chi))
        r0, r1 = residual(spec, 0.0, w), residual(spec, 1.0, w)
        lam_solver = -r0 / (r1 - r0)
        lam_xi = lambda_xi(ctx, w)
        assert abs(lam_solver - lam_xi) <= 1e-10 * max(1.0, abs(lam_xi)), chi


def test_trace_records_gaps():
    # no nonzero root below the threshold: the failed first point is a gap
    pts = trace(CP1, [3.0, 5.0], (0.5, 5.0))
    assert not pts[0].ok and pts[0].result is None
    assert pts[1].ok  # recovery from the original bracket after a gap


def test_trace_merges_onto_csck_branch_below_threshold():
    # continuing the nonzero branch below the threshold lands on the
    # constant-curvature solution at the origin rather than failing
    pts = trace(CP1, [5.0, 3.0], (0.1, 5.0))
    assert pts[1].ok
    assert pts[1].chi == pytest.approx(0.0, abs=1e-9)


def test_trace_stays_on_the_branch_across_the_trivial_root():
    # the nonzero root nearest the last one; a symmetric search around the
    # last root on the residual met the sign change at chi = 0 first and
    # returned chi = 0 for the last eleven points
    grid = np.linspace(4.06639544110262, 8.205139604301007, 12)
    pts = trace(CP1, grid, (-0.52, -0.47))
    chis = [p.chi for p in pts]
    assert all(p.ok and p.result.certified for p in pts)
    assert chis[0] == pytest.approx(-0.4984, abs=1e-4)
    assert chis[-1] == pytest.approx(-4.0370, abs=1e-4)
    assert all(b < a < 0.0 for a, b in zip(chis, chis[1:]))


def test_blowup_trace_certifies_every_point():
    # roots from |chi| = 0.26 down to 0.008 cross the float/mp switch at
    # |chi| = 1e-2; a float root whose residual misses RESIDUAL_TOL is solved
    # again in 60 digits (37 of 79 points certified before)
    grid = np.linspace(-1.0, -40.0, 79)
    pts = trace(P2, grid, (-1.0, -0.1))
    assert all(p.ok and p.result.certified for p in pts)
    for p in pts:
        assert lambda_of_chi_p2blowup(p.chi) == pytest.approx(p.lam, rel=1e-13)


def test_trace_follows_the_branch_past_the_curve_window():
    # chi > 30 lies outside SCAN_GRID: the bracket is grown from the last root
    pts = trace(CP1, [50.0, 58.0, 64.0, 70.0], (24.0, 26.0))
    assert all(p.ok and p.result.certified for p in pts)
    assert [p.chi for p in pts] == pytest.approx([25.0, 29.0, 32.0, 35.0], abs=1e-6)


def test_trace_rejects_non_monotone_grid():
    with pytest.raises(ValueError):
        trace(CP1, [1.0, 3.0, 2.0], (0.1, 5.0))


# -- extremal limit -----------------------------------------------------------------


def test_extremal_limit_p2():
    lc2, ext = extremal_limit_check(P2, -100.0)
    lc3, ext3 = extremal_limit_check(P2, -1000.0)
    assert ext == pytest.approx(ext3, rel=1e-12)
    assert abs(lc3 - ext) / abs(ext) <= 1e-2
    assert abs(lc2 - ext) / abs(lc3 - ext) >= 5.0


def test_extremal_limit_line_both_vanish():
    lc, ext = extremal_limit_check(CP1, -1000.0)
    assert abs(ext) <= 1e-12
    assert abs(lc) <= 1e-8


# -- lambda_freeze ------------------------------------------------------------------


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 2.5, 3.0])
def test_lambda_freeze_line(m):
    # the count changes at the level of the grid points chi = +-1e-3, whose
    # lambda_xi exceeds 4/m by about 4 m chi^2 / 15 (at most 8e-7 here)
    spec = SurfaceSpec.cp1(m)
    est = lambda_freeze_estimate(spec, (4.0 / m - 1.0, 4.0 / m + 1.0))
    assert est == pytest.approx(4.0 / m, abs=1e-6)
    assert lambda_freeze_estimate(spec, (4.0 / m + 1.0, 4.0 / m - 1.0)) == est
    transition = phase_diagram(spec, [0.9 * 4.0 / m, 1.1 * 4.0 / m]).transition_lambda
    assert transition == pytest.approx(4.0 / m, abs=1e-6)


def test_lambda_freeze_ruled_finite_positive():
    est = lambda_freeze_estimate(SurfaceSpec.ruled(1, 0, 2.0), (0.5, 30.0))
    assert est == pytest.approx(RULED_LAMBDA_FREEZE, abs=2e-3)
    assert est > 0.0


@pytest.mark.parametrize("spec, window", [(P2, (0.5, 30.0)),
                                          (SurfaceSpec.ruled(2, 1, 1.5), (3.0, 6.0))],
                         ids=["p2_blowup", "ruled_2_1_1.5"])
def test_lambda_freeze_is_the_level_where_the_count_changes(spec, window):
    est = lambda_freeze_estimate(spec, window)
    ctx = FunctionalContext(spec)
    assert len(find_critical(ctx, est - 1e-9)) == 1
    assert len(find_critical(ctx, est + 1e-9)) == 3


def test_lambda_freeze_reads_the_cached_curve(monkeypatch):
    def no_refinement(*args, **kwargs):
        raise AssertionError("lambda_freeze_estimate refined roots")

    monkeypatch.setattr(mucsck.path, "find_critical", no_refinement)
    monkeypatch.setattr(mucsck.functionals, "find_critical", no_refinement)
    assert lambda_freeze_estimate(CP1, (3.0, 5.0)) == pytest.approx(4.0, abs=1e-3)


def test_lambda_freeze_window_exhausted():
    with pytest.raises(WindowExhaustedError) as err:
        lambda_freeze_estimate(CP1, (5.0, 6.0))
    assert err.value.count_lo == err.value.count_hi == 3


# -- tau0 ---------------------------------------------------------------------------


def test_tau0_positive_example():
    tau0, verdict = tau0_positivity(-0.1, -1.0)
    assert verdict and tau0 > 0.0


def test_tau0_two_route_consistency(rng):
    for _ in range(12):
        chi = rng.uniform(-0.9, -0.02)
        lam = -rng.uniform(0.05, 8.0)
        tau0, _ = tau0_positivity(chi, lam)
        al, be, ga, de = tau0_sign_polynomials(chi)
        poly_route = -(al + lam * be) / (chi * (ga + lam * de))
        assert tau0 == pytest.approx(poly_route, rel=1e-8)


def test_tau0_matches_coefficients_directly(rng):
    chi, lam = -0.2, -5.0
    a, b, _ = solve_coefficients(P2, lam, TorusWeight(chi))
    tau0, _ = tau0_positivity(chi, lam)
    assert tau0 == pytest.approx(-a / b - 3.0 / chi, rel=1e-12)


def test_sign_patterns():
    # alpha, gamma positive on the full interval (-1, 0)
    for chi in np.linspace(-0.999, -1e-3, 200):
        al, be, ga, de = tau0_sign_polynomials(chi)
        assert al > 0.0 and ga > 0.0
    # beta, delta negative on the subinterval actually swept by the path
    for chi in np.linspace(-0.15, -1e-3, 100):
        _, be, _, de = tau0_sign_polynomials(chi)
        assert be < 0.0 and de < 0.0


def test_alpha_negative_outside():
    assert tau0_sign_polynomials(-1.5)[0] < 0.0


def test_tau0_positive_on_path():
    for chi in (-0.26, -0.2, -0.1, -0.02):
        lam = lambda_of_chi_p2blowup(chi)
        assert lam < 0.0
        _, verdict = tau0_positivity(chi, lam)
        assert verdict


def test_tau0_preconditions():
    with pytest.raises(ValueError):
        tau0_positivity(0.5, -1.0)
    with pytest.raises(ValueError):
        tau0_positivity(-0.5, 1.0)


# -- phase diagram -------------------------------------------------------------------


def test_phase_diagram_counts_and_transition():
    pd = phase_diagram(CP1, [3.5, 4.5])
    assert pd.critical_counts == (1, 3)
    assert pd.transition_lambda == pytest.approx(4.0, abs=1e-3)


def test_phase_metastable_classification():
    pd = phase_diagram(CP1, [4.5])
    row = dict(pd.classifications[0])
    assert row[0.0] == "muvol_min"  # the supercooled state
    nonzero = [k for c, k in pd.classifications[0] if c != 0.0]
    assert nonzero == ["muvol_max", "muvol_max"]


@pytest.mark.parametrize("m", [1.0, 2.5, 3.0])
def test_phase_degenerate_origin_is_a_maximum(m):
    # at lam = 4/m, mu_vol = 2/m - x^4 / (45 m) + O(x^6) with x = -m chi: the
    # quartic term makes the origin a maximum, where the Hessian is rounding noise
    pd = phase_diagram(SurfaceSpec.cp1(m), [4.0 / m])
    assert dict(pd.classifications[0])[0.0] == "muvol_max"


@pytest.mark.parametrize("m", [0.5, 1.0, 2.5])
def test_degenerate_origin_is_the_only_root_at_four_over_m(m):
    # F = F0 + lam F1 cancels to x^3 there; it is held to the size of the
    # terms it cancels, not to the largest |F| on the grid (7 roots at m = 0.5)
    spec = SurfaceSpec.cp1(m)
    assert find_critical(FunctionalContext(spec), 4.0 / m) == [0.0]
    assert phase_diagram(spec, [4.0 / m]).critical_counts == (1,)


def test_phase_counts_odd():
    pd = phase_diagram(CP1, [2.0, 4.2, 6.0])
    assert all(c % 2 == 1 for c in pd.critical_counts)


def test_phase_diagram_serializes():
    pd = phase_diagram(CP1, [3.5, 4.5])
    d = pd.to_dict()
    assert d["critical_counts"] == [1, 3]
    assert isinstance(pd, PhaseDiagram)


def test_soliton_point_structural_degeneration():
    # at the soliton parameter the tau e^{chi tau} mode drops out of the
    # solved profile and the curvature constant is 2 - chi (derived
    # consistency, frozen as a regression)
    pts = trace(P2, [1.0], (-1.0, -0.1))
    res = pts[0].result
    assert abs(res.b) <= 1e-10
    assert res.c == pytest.approx(2.0 - res.chi, rel=1e-12)
