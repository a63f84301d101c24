import json
import math
import re

import numpy as np
import pytest

from mucsck.dh import TorusWeight
from mucsck.errors import EvaluationError, MucsckError
from mucsck.functionals import (
    C_functional,
    FunctionalContext,
    W_check,
    d2_mu_vol,
    extremal_chi,
    find_critical,
    futaki,
    lambda_hat,
    lambda_inf,
    lambda_xi,
    log_vol,
    mu_vol,
    mu_vol_profile,
    nu,
    properness_slope,
    sbar,
    vol_report,
)
from mucsck.solver import solve_chi
from mucsck.surfaces import SurfaceSpec

from oracles import central_diff, masked_moment_reader, muvol_cp1_closed_form

CP1 = FunctionalContext(SurfaceSpec.cp1(1.0))
CP1_M2 = FunctionalContext(SurfaceSpec.cp1(2.0))
RULED = FunctionalContext(SurfaceSpec.ruled(1, 0, 2.0))

# frozen regressions (computed once by the quadrature pipeline, cross-checked
# against the continuity-path limit for the extremal weight)
RULED_EXTREMAL_CHI = 6.0 / 11.0
RULED_LAMBDA_HAT_BOUNDARY = 1.5115537


def ruled_second_profile():
    return RULED.with_profile(SurfaceSpec.ruled(1, 0, 2.0).perturbed_profile(0.03))


def cp1_second_profile():
    return CP1.with_profile(SurfaceSpec.cp1(1.0).perturbed_profile(0.08))


# -- sbar -------------------------------------------------------------------------


def test_sbar_fubini_study_is_constant_curvature():
    assert sbar(CP1, TorusWeight(0.0), 0.0) == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("m", [1.0, 2.0])
@pytest.mark.parametrize("chi", [0.4, -1.1, 2.3])
def test_sbar_class_formula(m, chi):
    # equivariant-class identity: sbar^0 = (2/m) x / tanh x at x = m chi
    ctx = FunctionalContext(SurfaceSpec.cp1(m))
    x = m * chi
    assert sbar(ctx, TorusWeight(chi), 0.0) == pytest.approx(
        (2.0 / m) * x / math.tanh(x), rel=1e-9
    )


def test_sbar_profile_independence():
    for lam in (0.0, 1.0):
        a = sbar(RULED, TorusWeight(-0.5), lam)
        b = sbar(ruled_second_profile(), TorusWeight(-0.5), lam)
        assert a == pytest.approx(b, abs=1e-8)


# -- mu_vol -----------------------------------------------------------------------


@pytest.mark.parametrize("chi", [0.0, 0.5, -1.3, 2.7])
@pytest.mark.parametrize("lam", [3.0, 5.0, -2.0])
def test_mu_vol_closed_form(chi, lam):
    got = mu_vol(CP1, TorusWeight(chi), lam)
    assert got == pytest.approx(muvol_cp1_closed_form(lam, chi, 1.0), abs=1e-10)


def test_mu_vol_limit_at_origin():
    expect = (5.0 - 2.0) - 5.0 * math.log(2.0 * math.pi)
    assert mu_vol(CP1, TorusWeight(0.0), 5.0) == pytest.approx(expect, rel=1e-12)


def test_mu_vol_three_critical_points_lam5():
    assert len(find_critical(CP1, 5.0)) == 3


def test_mu_vol_shift_invariance():
    w = TorusWeight(-0.9)
    base = mu_vol(RULED, w, 1.0)
    shifted = mu_vol(RULED.with_shift(0.42), w, 1.0)
    assert abs(base - shifted) <= 1e-12 * max(1.0, abs(base))
    # sbar moves by -lam*c and the mass term compensates
    assert sbar(RULED.with_shift(0.42), w, 1.0) - sbar(RULED, w, 1.0) == pytest.approx(
        -0.42, rel=1e-12
    )


# -- nu ----------------------------------------------------------------------------


def test_nu_uniform_symmetric_variance():
    # interval of length 2 pi, uniform: variance pi^2/3
    ctx = FunctionalContext(SurfaceSpec.cp1(math.pi))
    assert nu(ctx, TorusWeight(0.0), TorusWeight(1.0)) == pytest.approx(
        math.pi ** 2 / 3.0, rel=1e-12
    )


def test_nu_zero_direction():
    assert nu(RULED, TorusWeight(1.3), TorusWeight(0.0)) == 0.0


def test_nu_positive_on_random_directions(rng):
    for _ in range(100):
        base = TorusWeight(rng.uniform(-3.0, 3.0))
        direction = TorusWeight(rng.uniform(-3.0, 3.0))
        if direction.chi == 0.0:
            continue
        assert nu(RULED, base, direction) > 0.0
        assert nu(CP1, base, direction) > 0.0


# -- futaki ------------------------------------------------------------------------


def test_futaki_vanishes_at_origin_on_line():
    for chi_dir in (1.0, -2.0, 0.7):
        assert futaki(CP1, TorusWeight(0.0), TorusWeight(chi_dir), 3.0) == pytest.approx(
            0.0, abs=1e-12
        )


def test_futaki_vanishes_at_critical_weight():
    res = solve_chi(SurfaceSpec.cp1(1.0), 5.0, (0.1, 5.0))
    w = TorusWeight(res.chi)
    assert futaki(CP1, w, w, 5.0) == pytest.approx(0.0, abs=1e-8)


def test_futaki_profile_independence():
    for lam in (0.0, 1.0):
        a = futaki(RULED, TorusWeight(-0.5), TorusWeight(1.0), lam)
        b = futaki(ruled_second_profile(), TorusWeight(-0.5), TorusWeight(1.0), lam)
        assert a == pytest.approx(b, abs=1e-8)
        c = futaki(CP1, TorusWeight(0.8), TorusWeight(1.0), lam)
        d = futaki(cp1_second_profile(), TorusWeight(0.8), TorusWeight(1.0), lam)
        assert c == pytest.approx(d, abs=1e-8)


# -- first and second variations ------------------------------------------------------


@pytest.mark.parametrize("ctx", [CP1, RULED], ids=["cp1", "ruled"])
def test_d_mu_vol_matches_finite_difference(ctx, rng):
    for _ in range(10):
        chi = rng.uniform(-2.0, 2.0)
        lam = rng.uniform(-4.0, 6.0)
        fd = central_diff(lambda c: log_vol(ctx, TorusWeight(c), lam), chi, 1e-5)
        an = futaki(ctx, TorusWeight(chi), TorusWeight(1.0), lam)
        assert an == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_d_mu_vol_zero_at_critical():
    roots = find_critical(CP1, 5.0)
    for root in roots:
        assert futaki(CP1, TorusWeight(root), TorusWeight(1.0), 5.0) == pytest.approx(
            0.0, abs=1e-9
        )


def test_d_mu_vol_origin_line():
    assert futaki(CP1, TorusWeight(0.0), TorusWeight(1.0), 2.0) == pytest.approx(
        0.0, abs=1e-12
    )


@pytest.mark.parametrize("ctx", [CP1, RULED], ids=["cp1", "ruled"])
def test_d2_mu_vol_matches_finite_difference(ctx, rng):
    for _ in range(10):
        chi = rng.uniform(-1.5, 1.5)
        lam = rng.uniform(-4.0, 6.0)
        fd = central_diff(
            lambda c: futaki(ctx, TorusWeight(c), TorusWeight(1.0), lam), chi, 1e-4
        )
        an = d2_mu_vol(ctx, TorusWeight(chi), lam, TorusWeight(1.0))
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_d2_vanishes_at_fano_threshold():
    # anticanonical normalization on the line: the Hessian at the origin
    # crosses zero exactly at lam = 2
    val = d2_mu_vol(CP1_M2, TorusWeight(0.0), 2.0, TorusWeight(1.0))
    assert val == pytest.approx(0.0, abs=1e-10)


def test_d2_dominated_by_nu_for_very_negative_lam():
    assert d2_mu_vol(RULED, TorusWeight(-0.4), -1e6, TorusWeight(1.0)) > 1e4


# -- lambda_xi and the blown-up profile -------------------------------------------------


def test_lambda_xi_identity(rng):
    for _ in range(10):
        chi = rng.uniform(0.2, 2.5) * rng.choice([-1.0, 1.0])
        w = TorusWeight(chi)
        for ctx in (CP1, RULED):
            lam = lambda_xi(ctx, w)
            assert futaki(ctx, w, w, lam) == pytest.approx(0.0, abs=1e-9)


def test_lambda_xi_inverse_consistency():
    res = solve_chi(SurfaceSpec.cp1(1.0), 5.0, (0.1, 5.0))
    assert lambda_xi(CP1, TorusWeight(res.chi)) == pytest.approx(5.0, abs=1e-6)


def test_lambda_xi_sign_matches_futaki(rng):
    for _ in range(20):
        chi = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        w = TorusWeight(chi)
        f0 = futaki(RULED, w, w, 0.0)
        assert math.copysign(1.0, lambda_xi(RULED, w)) == math.copysign(1.0, f0)


def test_lambda_xi_undefined_at_origin():
    with pytest.raises(MucsckError):
        lambda_xi(CP1, TorusWeight(0.0))


def test_lambda_hat_continuity():
    for ctx in (CP1, RULED):
        assert abs(lambda_hat(ctx, +1, 1e-6) - lambda_hat(ctx, +1, 0.0)) <= 1e-4


def test_lambda_hat_boundary_line_vanishes():
    assert lambda_hat(CP1, +1, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert lambda_hat(CP1, -1, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_lambda_hat_boundary_ruled_frozen():
    assert lambda_hat(RULED, +1, 0.0) == pytest.approx(RULED_LAMBDA_HAT_BOUNDARY, rel=1e-6)


# -- critical points and the extremal weight ----------------------------------------------


def test_find_critical_unique_below_threshold():
    assert find_critical(CP1, 3.0) == [0.0]


def test_find_critical_symmetric_triple():
    roots = find_critical(CP1, 5.0)
    assert len(roots) == 3
    assert roots[1] == pytest.approx(0.0, abs=1e-12)
    assert roots[0] == pytest.approx(-roots[2], rel=1e-8)


def test_find_critical_ruled_negative_lambda_single():
    roots = find_critical(RULED, -10.0)
    assert len(roots) == 1
    assert -1.0 < roots[0] < 0.0


def test_extremal_chi_line_vanishes():
    for m in (1.0, 2.0, 3.5):
        assert extremal_chi(FunctionalContext(SurfaceSpec.cp1(m))) == pytest.approx(
            0.0, abs=1e-12
        )


def test_extremal_chi_ruled_frozen():
    assert extremal_chi(RULED) == pytest.approx(RULED_EXTREMAL_CHI, rel=1e-10)


def test_C_functional_convex():
    chis = np.linspace(-2.0, 2.0, 21)
    vals = [C_functional(RULED, TorusWeight(c)) for c in chis]
    second = np.diff(vals, 2)
    assert np.all(second > 0.0)


def test_C_vanishes_at_zero():
    assert C_functional(RULED, TorusWeight(0.0)) == 0.0


# -- properness ------------------------------------------------------------------------


def test_properness_slopes_positive_and_stable():
    sl = properness_slope(CP1, TorusWeight(1.0), 5.0, [50.0, 100.0])
    assert all(s > 0.0 for s in sl)
    assert abs(sl[0] - sl[1]) <= 0.05 * abs(sl[1])


def test_properness_lambda_independence():
    up = properness_slope(CP1, TorusWeight(5.0), 5.0, [100.0])[0]
    down = properness_slope(CP1, TorusWeight(5.0), -5.0, [100.0])[0]
    assert abs(up - down) <= 0.05 * abs(up)


def test_properness_direction_reversal():
    sl = properness_slope(CP1, TorusWeight(-1.0), 2.0, [100.0])
    assert sl[0] > 0.0


def test_properness_guards():
    with pytest.raises(ValueError):
        properness_slope(CP1, TorusWeight(1.0), 0.0, [100.0, 50.0])
    with pytest.raises(ValueError):
        properness_slope(CP1, TorusWeight(1.0), 0.0, [250.0])


# -- W-check --------------------------------------------------------------------------


def test_W_check_continuity_and_rate():
    eta = TorusWeight(1.0)
    w0 = W_check(CP1, eta, 0.0)
    d1 = abs(W_check(CP1, eta, 1e-3) - w0)
    d2_ = abs(W_check(CP1, eta, 5e-4) - w0)
    assert d1 <= 1e-2
    assert d2_ <= 0.55 * d1  # first-order rate halves under kappa -> kappa/2


def test_W_check_zero_direction():
    assert W_check(CP1, TorusWeight(0.0), 0.0) == 0.0


def test_W_check_mexican_hat():
    # small positive kappa = 1/lam with lam above the uniqueness threshold:
    # the rescaled profile has three critical points in eta
    kappa = 0.2  # lam = 5
    etas = np.linspace(-15.0, 15.0, 401)
    vals = np.array([W_check(CP1, TorusWeight(e), kappa) for e in etas])
    dsign = np.sign(np.diff(vals))
    flips = np.nonzero(np.diff(dsign) != 0)[0]
    assert len(flips) == 3


# -- the report and remaining invariants -----------------------------------------------


def test_vol_report_roundtrip_and_positivity():
    rep = vol_report(RULED, TorusWeight(-0.7), 1.0)
    assert rep.nu_self > 0.0
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["log_vol"] == rep.log_vol
    assert back["lambda_xi"] == rep.lambda_xi


def test_lambda_nonpositive_set_is_compact_in_window():
    # every weight with lambda_xi <= 0 found on a coarse grid lies well inside
    # the default critical scan window, as do all critical points for lam <= 0
    for chi in np.linspace(-5.0, 5.0, 41):
        if chi == 0.0:
            continue
        if lambda_xi(RULED, TorusWeight(chi)) <= 0.0:
            assert abs(chi) < 30.0
    for lam in (-10.0, -1.0, 0.0):
        for root in find_critical(RULED, lam):
            assert abs(root) < 30.0


class CountingProfile:
    """A profile that counts its value/deriv/deriv2 calls."""

    def __init__(self, inner):
        self.inner, self.calls = inner, {"value": 0, "deriv": 0, "deriv2": 0}

    def _count(self, name, t):
        self.calls[name] += 1
        return getattr(self.inner, name)(t)

    def value(self, t):
        return self._count("value", t)

    def deriv(self, t):
        return self._count("deriv", t)

    def deriv2(self, t):
        return self._count("deriv2", t)


def test_context_evaluates_reference_profile_once():
    # the context evaluates its profile on the nodes once; every functional,
    # the chi-grid scan and the brentq refinement reuse those values
    spec = SurfaceSpec.cp1(1.0)
    prof = CountingProfile(spec.reference_profile())
    ctx = FunctionalContext(spec, prof)
    roots = find_critical(ctx, 5.0)
    assert len(roots) == 3
    vol_report(ctx, TorusWeight(roots[-1]), 5.0)
    assert all(n <= 1 for n in prof.calls.values()), prof.calls


def test_lambda_inf_anticanonical_value():
    assert lambda_inf(CP1_M2) == pytest.approx(2.0, rel=1e-9)
    assert lambda_inf(CP1) == pytest.approx(4.0, rel=1e-9)


def test_W_check_matches_logvol_composition():
    # kappa^{-1} [log Vol^{1/kappa}(kappa eta) - (1/kappa) log mass0 - s_mean]
    from mucsck.dh import integrate_weighted, weighted_average
    from mucsck.functionals import scalar_curvature
    import numpy as np

    eta = TorusWeight(0.8)
    for ctx in (CP1, RULED):
        s_mean = weighted_average(ctx.measure, lambda t: scalar_curvature(ctx, t), TorusWeight(0.0))
        mass0 = integrate_weighted(ctx.measure, lambda t: np.ones_like(t), TorusWeight(0.0))
        for kappa in (0.5, -0.3, 0.04):
            lam = 1.0 / kappa
            direct = (log_vol(ctx, eta.scaled(kappa), lam)
                      - lam * math.log(mass0) - s_mean) / kappa
            assert W_check(ctx, eta, kappa) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_C_functional_profile_independent():
    # up to its profile-free constant C is a class invariant; the constant is
    # already subtracted, so the values must coincide across profiles
    for chi in (0.5, -1.2, 2.0):
        a = C_functional(RULED, TorusWeight(chi))
        b = C_functional(ruled_second_profile(), TorusWeight(chi))
        assert a == pytest.approx(b, abs=1e-8)


def test_extremal_chi_profile_independent():
    assert extremal_chi(RULED) == pytest.approx(
        extremal_chi(ruled_second_profile()), abs=1e-10
    )

@pytest.mark.parametrize("m", [1.0, 2.0])
def test_d_mu_vol_closed_form_oracle(m):
    from oracles import muvol_cp1_derivative

    ctx = FunctionalContext(SurfaceSpec.cp1(m))
    for chi in (0.4, -1.1, 2.3):
        for lam in (3.0, 5.0, -1.0):
            got = futaki(ctx, TorusWeight(chi), TorusWeight(1.0), lam)
            assert got == pytest.approx(muvol_cp1_derivative(lam, chi, m), rel=1e-12)



def test_lambda_hat_boundary_odd_in_ray():
    assert lambda_hat(RULED, -1, 0.0) == pytest.approx(
        -lambda_hat(RULED, +1, 0.0), rel=1e-12
    )


# -- the moment kernel ------------------------------------------------------------------

KERNEL_SPECS = {
    "cp1": SurfaceSpec.cp1(1.0),
    "cp1_2.5": SurfaceSpec.cp1(2.5),
    "p2_blowup": SurfaceSpec.p2_blowup(),
    "ruled_2_1_1.5": SurfaceSpec.ruled(2, 1, 1.5),
    "ruled_3_0_0.5": SurfaceSpec.ruled(3, 0, 0.5),
}


def kernel_contexts(name):
    spec = KERNEL_SPECS[name]
    ctx = FunctionalContext(spec)
    return {"plain": ctx, "shifted": ctx.with_shift(0.25),
            "perturbed": ctx.with_profile(spec.perturbed_profile(0.05))}


@pytest.mark.parametrize("name", sorted(KERNEL_SPECS))
def test_kernel_moments_match_node_sum_oracle(name):
    # |chi| * width up to 400, the end of the properness scan, and 1000
    from mucsck.functionals import _obstruction
    from mucsck.solver import mu_curvatures
    from oracles import node_sum_log_mass_and_average

    for variant, ctx in kernel_contexts(name).items():
        meas, t = ctx.measure, ctx.measure.rule[0]
        _, A = mu_curvatures(ctx.spec, 0.0, 0.0, t, ctx.jet)
        B0 = mu_curvatures(ctx.spec, 1.0, 0.0, t, ctx.jet)[1] - A
        phi = ctx.reference_profile.value(t)
        for xw in (0.0, 0.5, -0.5, 5.0, -5.0, 50.0, -50.0, 400.0, -400.0, 1000.0, -1000.0):
            chi = xw / meas.width
            m = ctx._moments(chi)

            def avg(vals):
                return node_sum_log_mass_and_average(meas, vals, chi)[1]

            def rms(vals):
                return math.sqrt(avg(vals ** 2))

            lm = node_sum_log_mass_and_average(meas, 1.0, chi)[0]
            mean = avg(t)
            var = avg((t - mean) ** 2)
            s0 = mu_curvatures(ctx.spec, chi, 0.0, t, ctx.jet)[0]
            s0_hat = s0 - avg(s0)
            pairs = [
                (m.log_mass - chi * m.ref, lm, max(1.0, abs(lm))),
                (m.ref + m.t1, mean, math.sqrt(var + mean ** 2)),
                (m.t2 - m.t1 ** 2, var, var),
                (m.t3, avg((t - m.ref) ** 3), rms((t - m.ref) ** 3)),
                (m.a_end + m.a, avg(A), rms(A)),
                (m.b0, avg(B0), rms(B0)),
                (m.phi, avg(phi), rms(phi)),
            ]
            for i, (got, expected, scale) in enumerate(pairs):
                assert abs(got - expected) <= 1e-13 * scale, (variant, xw, i, got, expected)
            # the covariance of s^0 and tau; the reference's node values of
            # s^0 = A + chi B + chi^2 C cancel at large |chi|
            cov = avg(s0_hat * (t - mean))
            assert abs(-_obstruction(m)[0] - cov) <= 1e-12 * rms(s0_hat) * math.sqrt(var), (
                variant, xw)


@pytest.mark.parametrize("spec", [SurfaceSpec.cp1(1.0), SurfaceSpec.ruled(2, 1, 1.5)],
                         ids=["cp1", "ruled_2_1_1.5"])
def test_kernel_functionals_match_40_digit_node_sums(spec):
    from oracles import node_sum_functionals

    ctx = FunctionalContext(spec)
    unit = TorusWeight(1.0)
    for xw in (0.5, 3.0, 10.0, 30.0, 60.0):
        for sign in (1.0, -1.0):
            w = TorusWeight(sign * xw / ctx.measure.width)
            f_ref, nu_ref, sbar_ref = node_sum_functionals(ctx, w.chi, 2.0)
            got = (futaki(ctx, w, unit, 2.0), nu(ctx, w, unit), sbar(ctx, w, 2.0))
            for g, r in zip(got, (f_ref, nu_ref, sbar_ref)):
                assert abs(g - r) <= 1e-14 * abs(r), (sign * xw, g, r)


@pytest.mark.parametrize("spec", [SurfaceSpec.cp1(1.0), SurfaceSpec.ruled(2, 1, 1.5),
                                  SurfaceSpec.p2_blowup()], ids=["cp1", "ruled", "p2_blowup"])
def test_kernel_batched_rows_equal_single_calls(spec):
    from mucsck.functionals import SCAN_GRID

    ctx = FunctionalContext(spec)
    batch = ctx._moments(SCAN_GRID)
    for i, chi in enumerate(SCAN_GRID):
        one = ctx._moments(chi)
        assert abs(batch.log_mass[i] - one.log_mass) <= 1e-15 * max(1.0, abs(one.log_mass))
        for field in ("t1", "t2", "t3", "phi"):
            got, expected = getattr(batch, field)[i], getattr(one, field)
            assert abs(got - expected) <= 1e-15 * abs(expected), (chi, field)


def test_find_critical_reads_the_kernel_not_futaki(monkeypatch):
    import mucsck.functionals as fn

    calls = []
    monkeypatch.setattr(fn, "futaki", lambda *a: calls.append(a) or 0.0)
    roots = fn.find_critical(FunctionalContext(SurfaceSpec.cp1(1.0)), 5.0)
    assert len(roots) == 3
    assert calls == []


def test_find_critical_fallback_is_the_least_log_vol_on_the_grid(monkeypatch):
    # no zero and no sign change on the grid: the least log Vol^lam there,
    # read from one array call of the kernel
    import mucsck.functionals as fn

    ctx = FunctionalContext(SurfaceSpec.ruled(2, 1, 1.5))
    monkeypatch.setattr(fn, "critical_brackets", lambda ctx, lam: [])
    sizes = []
    kernel = fn._end_moments
    monkeypatch.setattr(fn, "_end_moments",
                        lambda st, chis: sizes.append(len(chis)) or kernel(st, chis))
    expected = min(fn.SCAN_GRID, key=lambda c: log_vol(ctx, TorusWeight(c), 2.0))
    sizes.clear()
    assert fn.find_critical(ctx, 2.0) == [expected]
    assert sizes == [len(fn.SCAN_GRID)]


def test_muvol_cli_rows_come_from_one_kernel_call(tmp_path, monkeypatch):
    import mucsck.cli as cli
    import mucsck.functionals as fn

    sizes = []
    kernel = fn._end_moments

    def counting(stacks, chis):
        sizes.append(len(chis))
        return kernel(stacks, chis)

    monkeypatch.setattr(fn, "_end_moments", counting)
    for name in ("mu_vol", "futaki"):  # a scalar functional per row would fail
        monkeypatch.setattr(cli, name, None, raising=False)
    grid = list(np.linspace(-3.0, 3.0, 21))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"surface": {"kind": "CP1", "m": 1.0}, "lambda": 5.0,
                               "chi_grid": grid}))
    out = tmp_path / "out.csv"
    assert cli.main(["muvol", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = len(out.read_text().splitlines()) - 1
    assert rows == 21 + 3
    # the cached obstruction curve, one call per brentq step, and one call for every row
    assert sizes.count(rows) == 1
    assert set(sizes) == {1, len(fn.SCAN_GRID), rows}


@pytest.mark.parametrize("chi", [1e300, -1e300])
def test_extreme_weights_fail_loudly(chi):
    w, unit = TorusWeight(chi), TorusWeight(1.0)
    for call in (lambda: log_vol(CP1, w, 2.0), lambda: futaki(CP1, w, unit, 2.0),
                 lambda: nu(CP1, w, w), lambda: mu_vol_profile(CP1, [0.5, chi], 2.0)):
        with pytest.raises(MucsckError, match="chi="):
            call()


@pytest.mark.parametrize("m, chi_dir", [(1.0, 1e160), (1.0, -1e160), (10.0, 1.3e154)])
@pytest.mark.parametrize("second_variation", [
    lambda ctx, d: nu(ctx, TorusWeight(0.05), d),
    lambda ctx, d: d2_mu_vol(ctx, TorusWeight(0.05), 2.0, d),
], ids=["nu", "d2_mu_vol"])
def test_a_huge_direction_fails_naming_chi_dir(second_variation, m, chi_dir):
    # both scale as chi_dir ** 2: past the float range in the square (m = 1)
    # or in the product with the unit-direction value (m = 10)
    ctx = CP1 if m == 1.0 else FunctionalContext(SurfaceSpec.cp1(m))
    with pytest.raises(EvaluationError, match=re.escape(f"at chi_dir={chi_dir!r}") + "$"):
        second_variation(ctx, TorusWeight(chi_dir))


@pytest.mark.parametrize("spec", [SurfaceSpec.cp1(1.0), SurfaceSpec.cp1(2.7), SurfaceSpec.cp1(0.3),
                                  SurfaceSpec.p2_blowup(), SurfaceSpec.ruled(3, 2, 0.7)],
                         ids=["CP1(1)", "CP1(2.7)", "CP1(0.3)", "P(O(1)+O)", "Ruled(3,2,0.7)"])
def test_a_single_chi_reads_the_masked_row_bit_for_bit(spec):
    # one chi reads one end's stack, without the masked array path: every
    # field is the masked path's float, and every error its error
    ctx, read = FunctionalContext(spec), masked_moment_reader(FunctionalContext(spec))
    mags = np.concatenate([[0.0, 1e-6], np.logspace(-6.0, 3.0, 46) / ctx.measure.width])
    chis = [sign * x for x in mags for sign in (1.0, -1.0)]
    chis += [1e7, -1e7, 1e9, -1e9, 1e155, -1e200, math.inf, -math.inf, math.nan]
    errors = []
    for chi in chis:
        try:
            want = read(chi)
        except (MucsckError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                ctx._moments(chi)
            assert str(got.value) == str(exc)
            errors.append(str(exc))
            continue
        got = tuple(ctx._moments(chi))
        assert got == want, chi
        assert np.array(got).tobytes() == np.array(want).tobytes(), chi
    for refusal in ("the weighted mass vanishes", "chi ** 2 leaves", "chi must be finite"):
        assert any(refusal in e for e in errors), refusal


@pytest.mark.parametrize("chi", [1e5, -1e5])
def test_strong_finite_weights_stay_finite(chi):
    w, unit = TorusWeight(chi), TorusWeight(1.0)
    values = [log_vol(CP1, w, 2.0), futaki(CP1, w, unit, 2.0), nu(CP1, w, w),
              *np.concatenate(mu_vol_profile(CP1, [0.5, chi], 2.0))]
    assert all(math.isfinite(v) for v in values), values
