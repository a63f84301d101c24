import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from scipy.optimize import brentq

from mucsck.dh import TorusWeight
from mucsck.errors import BracketError, ChiZeroBranchError, DomainError
from mucsck.profiles import ClosedFormProfile, PolynomialProfile, _polyder
from mucsck.solver import (
    MP_DPS,
    SCAN_POINTS,
    PositivityCertificate,
    _free_deriv,
    _needs_mp,
    _psi_parts,
    _solve,
    _solve_with_profile,
    chi_zero_branch,
    flat_disk_limit_gap,
    mu_scalar_curvature,
    ode_sup_residual,
    positivity_certificate,
    residual,
    solve_at,
    solve_chi,
    solve_coefficients,
)
from mucsck.surfaces import SurfaceSpec

from oracles import (
    cp1_closed_form_abc,
    cp1_lambda_equation,
    cp1_lambda_of_chi,
    ruled_closed_form_ab,
    ruled_closed_form_c,
    second_diff,
)

CP1 = SurfaceSpec.cp1(1.0)
RULED = SurfaceSpec.ruled(1, 0, 2.0)

# frozen regression: the lam=0 root on the ruled surface (also the boundary
# of the chi-window swept by the negative-lambda continuity path)
RULED_LAM0_CHI = -0.2648788736485548


def basis(spec, lam, chi):
    """f1..f4 with phi = a f1 + b f2 + c f3 + f4, as closed-form profiles.

    f1, f2 are the profiles with (a, b) = (1, 0), (0, 1) and no polynomial;
    f3, f4 are the particular-part polynomials P3, P4 over 1 - k tau.
    """
    p3, p4 = _psi_parts(spec, lam, chi, 1.0)
    dom = (spec.tau_lo, spec.tau_hi)
    return tuple(
        ClosedFormProfile(a, b, chi, tuple(poly), spec.k, dom, lam).value
        for a, b, poly in ((1.0, 0.0, (0.0,)), (0.0, 1.0, (0.0,)), (0.0, 0.0, p3), (0.0, 0.0, p4))
    )


# -- mu_scalar_curvature ---------------------------------------------------------


def test_fubini_study_curvature_constant():
    for m in (1.0, 2.0):
        spec = SurfaceSpec.cp1(m)
        prof = spec.reference_profile()
        ts = np.linspace(0.05, 2 * m - 0.05, 41)
        vals = mu_scalar_curvature(spec, prof, TorusWeight(0.0), 3.7, ts)
        assert np.allclose(vals, 2.0 / m, atol=1e-12)


def test_curvature_against_second_difference_oracle():
    spec = CP1
    prof = spec.reference_profile()
    w = TorusWeight(0.8)
    lam = 2.5
    for tau in (0.3, 1.0, 1.7):
        phi = lambda t: float(prof.value(t))  # noqa: E731
        d2 = second_diff(phi, tau, 1e-4)
        d1 = (phi(tau + 1e-4) - phi(tau - 1e-4)) / 2e-4
        oracle = -(d2 - 2 * w.chi * d1 + w.chi ** 2 * phi(tau)) + lam * w.chi * tau
        got = mu_scalar_curvature(spec, prof, w, lam, tau)
        assert got == pytest.approx(oracle, abs=1e-6)


def test_ruled_chi_zero_branch_constant_curvature():
    res = chi_zero_branch(RULED, 0.0)
    assert res.ode_sup_residual <= 1e-10
    assert res.c == pytest.approx(1.8, rel=1e-14)


def test_assembled_basis_annihilates_to_constant(rng):
    # phi = a f1 + b f2 + c f3 + f4 must have curvature identically c, for
    # any (a, b, c): the exponential part lies in the kernel of the operator
    # and the particular part produces exactly the constant
    for spec in (CP1, RULED):
        lam, chi = 1.7, -0.9
        a, b, c = rng.normal(size=3)
        p3, p4 = _psi_parts(spec, lam, chi, 1.0)
        poly = np.polynomial.polynomial.polyadd(np.asarray(p4), c * np.asarray(p3))
        prof = ClosedFormProfile(a, b, chi, tuple(poly), spec.k,
                                 (spec.tau_lo, spec.tau_hi), lam)
        ts = np.linspace(spec.tau_lo, spec.tau_hi, 103)[1:-1]
        vals = mu_scalar_curvature(spec, prof, TorusWeight(chi), lam, ts)
        assert np.allclose(vals, c, atol=1e-9)
        # cross-check the basis functions assemble to the same profile
        f1, f2, f3, f4 = basis(spec, lam, chi)
        assembled = a * f1(ts) + b * f2(ts) + c * f3(ts) + f4(ts)
        assert np.allclose(assembled, prof.value(ts), rtol=1e-12, atol=1e-12)


def test_domain_error_at_endpoint():
    with pytest.raises(DomainError):
        mu_scalar_curvature(CP1, CP1.reference_profile(), TorusWeight(0.1), 0.0, 2.0)


@pytest.mark.parametrize("k, genus", [(2, 0), (0, 1), (1, 1)])
def test_cp1_rejects_degree_and_genus(k, genus):
    # the line has no degree or base genus; a CP1 spec carrying them used to
    # solve with a mismatched boundary system (residual 3.0 at lambda 4, chi 1.3)
    with pytest.raises(ValueError, match="no degree or genus"):
        SurfaceSpec("CP1", 1.0, k=k, genus=genus)


# -- solution basis -------------------------------------------------------------


def test_basis_cp1_explicit_parts():
    chi = 1.3
    f1, f2, f3, f4 = basis(CP1, 5.0, chi)
    assert f3(0.7) == pytest.approx(-1.0 / chi ** 2, rel=1e-14)
    assert f4(0.7) == pytest.approx((5.0 / chi) * 0.7 + 2 * 5.0 / chi ** 2, rel=1e-14)
    assert f1(0.7) == pytest.approx(np.exp(chi * 0.7), rel=1e-14)
    assert f2(0.7) == pytest.approx(0.7 * np.exp(chi * 0.7), rel=1e-14)


def test_basis_ruled_c_part_structure():
    chi, k = -0.8, 1
    f3 = basis(RULED, 2.0, chi)[2]
    t = -0.5
    expect = ((k / chi ** 2) * t + 2 * k / chi ** 3 - 1.0 / chi ** 2) / (1 - k * t)
    assert f3(t) == pytest.approx(expect, rel=1e-13)


def test_basis_rejects_tiny_chi():
    with pytest.raises(ChiZeroBranchError):
        solve_coefficients(CP1, 1.0, TorusWeight(1e-8))


def test_mp_profile_matches_float_twin():
    # an mp profile (through its float form, and in mpmath at an mpf tau)
    # agrees with the profile of its float-rounded coefficients
    lam, chi = 4.0, 1.3
    with mp.workdps(60):
        _, prof_mp = _solve(CP1, lam, chi, mpf(1))
    twin = ClosedFormProfile(float(prof_mp.a), float(prof_mp.b), chi,
                             tuple(float(c) for c in prof_mp.poly_coeffs),
                             prof_mp.k, prof_mp.domain, prof_mp.lam)
    assert prof_mp.use_mp and not twin.use_mp
    ts = np.linspace(CP1.tau_lo, CP1.tau_hi, 41)[1:-1]
    for method in ("value", "deriv", "deriv2"):
        got, ref = getattr(prof_mp, method)(ts), getattr(twin, method)(ts)
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0), method
    ref = _free_deriv(CP1, twin, 1.0)
    assert float(_free_deriv(CP1, prof_mp, 1.0)) == pytest.approx(ref, rel=1e-12)
    with mp.workdps(60):
        exact = _free_deriv(CP1, prof_mp, mpf(1))
    assert isinstance(exact, mpf)
    assert float(exact) == pytest.approx(ref, rel=1e-12)


@settings(max_examples=50, deadline=None)
@given(coeffs=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6),
       n=st.sampled_from([1, 2]))
def test_polyder_list_matches_numpy_bits(coeffs, n):
    # the float form's derivative polynomials keep numpy's rounding, so float
    # profiles evaluate bit for bit as with numpy's polyder
    want = np.polynomial.polynomial.polyder(coeffs, n)
    got = _polyder(coeffs, n)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(np.asarray(got), want)


class _PhiOnly:
    """A profile seen only through phi, phi', phi'' (no psi methods)."""

    def __init__(self, profile):
        self.value, self.deriv, self.deriv2 = profile.value, profile.deriv, profile.deriv2


@pytest.mark.parametrize("lam, chi", [(4.0, 1.3), (12.0, 5.9955)])
@pytest.mark.parametrize("arith", ["float", "mp"])
def test_mu_scalar_curvature_psi_route_matches_phi_route(lam, chi, arith):
    # on the line psi = phi, so the psi jet of a ClosedFormProfile and the phi
    # jet give the same weighted curvature, bit for bit
    if arith == "mp":
        with mp.workdps(60):
            _, prof = _solve(CP1, lam, chi, mpf(1))
    else:
        _, prof = _solve(CP1, lam, chi, 1.0)
    assert prof.use_mp == (arith == "mp")
    ts = np.linspace(CP1.tau_lo, CP1.tau_hi, 67)[1:-1]
    w = TorusWeight(chi)
    via_psi = mu_scalar_curvature(CP1, prof, w, lam, ts)
    via_phi = mu_scalar_curvature(CP1, _PhiOnly(prof), w, lam, ts)
    assert np.array_equal(via_psi, via_phi)
    phi, dphi, d2phi = prof.value(ts), prof.deriv(ts), prof.deriv2(ts)
    direct = -(d2phi - 2.0 * chi * dphi + chi ** 2 * phi) + lam * chi * ts
    assert np.array_equal(via_psi, direct)


# -- solve_coefficients vs independent closed forms --------------------------------


def test_cp1_closed_form_cross_check(rng):
    for _ in range(50):
        lam = rng.uniform(-4.0, 8.0)
        chi = rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0])
        a, b, c = solve_coefficients(CP1, lam, TorusWeight(chi))
        ap, bp, cp_ = cp1_closed_form_abc(lam, chi)
        assert a == pytest.approx(ap, rel=1e-9, abs=1e-12)
        assert b == pytest.approx(bp, rel=1e-9, abs=1e-12)
        assert c == pytest.approx(cp_, rel=1e-9, abs=1e-12)


def test_ruled_closed_form_cross_check(rng):
    for _ in range(50):
        lam = rng.uniform(-4.0, 6.0)
        chi = rng.uniform(0.1, 2.5) * rng.choice([-1.0, 1.0])
        a, b, c = solve_coefficients(RULED, lam, TorusWeight(chi))
        cp_ = ruled_closed_form_c(lam, chi)
        ap, bp = ruled_closed_form_ab(lam, chi, cp_)
        assert c == pytest.approx(cp_, rel=1e-9, abs=1e-12)
        assert a == pytest.approx(ap, rel=1e-9, abs=1e-12)
        assert b == pytest.approx(bp, rel=1e-9, abs=1e-12)


def test_ruled_lam0_closed_form_fixed_point():
    a, b, c = solve_coefficients(RULED, 0.0, TorusWeight(-0.5))
    assert c == pytest.approx(ruled_closed_form_c(0.0, -0.5), rel=1e-12)


# -- boundary exactness -----------------------------------------------------------


def test_imposed_boundary_exactness(rng):
    for spec in (CP1, RULED):
        for _ in range(10):
            lam = rng.uniform(-3.0, 6.0)
            chi = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
            res = solve_at(spec, lam, chi)
            prof = res.profile
            bc = spec.bc
            assert prof.value(spec.tau_lo) == pytest.approx(bc.value_lo, abs=1e-12)
            assert prof.value(spec.tau_hi) == pytest.approx(bc.value_hi, abs=1e-12)
            d0 = bc.deriv_lo if spec.tau_lo == 0.0 else bc.deriv_hi
            assert prof.deriv(0.0) == pytest.approx(d0, abs=1e-11)


# -- chi -> 0 limits --------------------------------------------------------------


def test_ruled_chi_zero_limits_symmetric_mean():
    c_mean = 0.5 * (
        solve_at(RULED, 1.0, 1e-5).c + solve_at(RULED, 1.0, -1e-5).c
    )
    assert c_mean == pytest.approx(1.8, abs=1e-6)
    dphis = [
        residual(RULED, 1.0, TorusWeight(s * 1e-5)) + 1.0 for s in (1.0, -1.0)
    ]
    assert 0.5 * sum(dphis) == pytest.approx(11.0 / 15.0, abs=1e-6)


def test_ruled_branch_values():
    res = chi_zero_branch(RULED, 3.0)
    assert res.c == pytest.approx(1.8, rel=1e-13)
    assert res.residual == pytest.approx(-4.0 / 15.0, rel=1e-12)


def test_residual_continuity_across_zero():
    for lam in (0.0, 1.0, 5.0):
        branch = chi_zero_branch(RULED, lam).residual
        for chi in (1e-5, -1e-5):
            assert abs(residual(RULED, lam, TorusWeight(chi)) - branch) <= 1e-4


def test_cp1_branch_is_fubini_study():
    res = chi_zero_branch(CP1, 2.0)
    ts = np.linspace(0.0, 2.0, 11)
    assert np.allclose(res.profile.value(ts), ts * (2.0 - ts), atol=1e-14)
    assert res.residual == pytest.approx(0.0, abs=1e-14)


# -- residual behaviour ------------------------------------------------------------


def test_ruled_residual_diverges_negative_chi():
    # residual -> +inf as chi -> -inf; the psi-slope obeys
    # psi'(-m) chi e^{m chi} -> -1/m, i.e. phi'(-m) chi e^{m chi} (1+km) -> -1/m
    r30 = residual(RULED, 1.0, TorusWeight(-30.0))
    assert r30 > 1e6
    m, k = RULED.m, RULED.k
    scaled = (r30 + 1.0) * (-30.0) * np.exp(-30.0 * m) * (1 + k * m)
    assert scaled == pytest.approx(-1.0 / m, rel=0.05)


def test_cp1_residual_root_matches_lambda_equation(rng):
    # residual(lam, chi) = 0 iff the transcendental relation holds
    for _ in range(20):
        chi = rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0])
        lam = cp1_lambda_of_chi(chi)
        assert abs(residual(CP1, lam, TorusWeight(chi))) <= 1e-9
        assert abs(cp1_lambda_equation(lam, chi)) <= 1e-10


# -- solve_chi ---------------------------------------------------------------------


def test_ruled_existence_lam0_frozen_regression():
    res = solve_chi(RULED, 0.0, (-0.5, -0.1))
    assert res.chi == pytest.approx(RULED_LAM0_CHI, abs=1e-10)
    assert res.certified
    assert abs(res.residual) <= 1e-10
    assert res.ode_sup_residual <= 1e-8
    assert res.positivity.verdict


def test_cp1_lam5_matches_bisection_oracle():
    oracle = brentq(lambda c: cp1_lambda_equation(5.0, c), 0.1, 5.0, xtol=1e-13)
    res = solve_chi(CP1, 5.0, (0.1, 5.0))
    assert res.chi == pytest.approx(oracle, abs=1e-8)
    assert res.certified


def test_cp1_below_threshold_has_no_root():
    with pytest.raises(BracketError):
        solve_chi(CP1, 3.0, (0.1, 5.0))


# -- scaling covariance -------------------------------------------------------------


class _Rescaled:
    """phi_c(tau) = c phi(tau / c) on the c-times interval."""

    def __init__(self, prof, c):
        self.prof, self.c = prof, c
        lo, hi = prof.domain
        self.domain = (c * lo, c * hi)

    def value(self, t):
        return self.c * self.prof.value(np.asarray(t) / self.c)

    def deriv(self, t):
        return self.prof.deriv(np.asarray(t) / self.c)

    def deriv2(self, t):
        return self.prof.deriv2(np.asarray(t) / self.c) / self.c


def test_scaling_law_pointwise():
    res = solve_chi(CP1, 5.0, (0.1, 5.0))
    c = 2.0
    spec2 = SurfaceSpec.cp1(c * CP1.m)
    scaled = _Rescaled(res.profile, c)
    ts = np.linspace(0.1, 1.9, 17)
    base = mu_scalar_curvature(CP1, res.profile, TorusWeight(res.chi), res.lam, ts)
    moved = mu_scalar_curvature(
        spec2, scaled, TorusWeight(res.chi / c), res.lam / c, c * ts
    )
    assert np.allclose(moved, base / c, atol=1e-10)


# -- positivity certificate ----------------------------------------------------------


def test_fubini_study_certificate():
    cert = positivity_certificate(CP1.reference_profile(), CP1)
    assert cert.verdict
    assert cert.inflection_points == ()


def test_corrupted_profile_flagged_negative():
    bad = PolynomialProfile((-1.1, 2.0, -1.0), (0.0, 2.0))  # phi(1) = -0.1
    cert = positivity_certificate(bad, CP1)
    assert not cert.verdict
    assert cert.min_phi <= -0.1


def test_certificate_on_certified_solution_records_tau0():
    res = solve_chi(RULED, 0.0, (-0.5, -0.1))
    cert = res.positivity
    assert cert.tau0 is not None
    assert cert.tau0 == pytest.approx(-res.a / res.b - 3.0 / res.chi, rel=1e-12)


# -- float form of extended-precision profiles ---------------------------------------

SCREEN_SURFACES = {
    "cp1": CP1,
    "cp1_0.6": SurfaceSpec.cp1(0.6),
    "p2_blowup": SurfaceSpec.p2_blowup(),
    "ruled_2_1_1.5": SurfaceSpec.ruled(2, 1, 1.5),
    "ruled_3_2_0.6": SurfaceSpec.ruled(3, 2, 0.6),
}
RULED_SCREEN = ("p2_blowup", "ruled_2_1_1.5", "ruled_3_2_0.6")


def _width(spec):
    return spec.tau_hi - spec.tau_lo


def _scan_nodes(spec):
    return np.linspace(spec.tau_lo, spec.tau_hi, SCAN_POINTS)[1:-1]


def _curve_lambda(spec, chi):
    # the residual is affine in lambda at fixed chi
    r0, r1 = (residual(spec, lam, TorusWeight(chi)) for lam in (0.0, 1.0))
    return -r0 / (r1 - r0)


def _mp_profile(spec, lam, chi):
    assert _needs_mp(spec, chi)
    return _solve_with_profile(spec, lam, TorusWeight(chi))[1]


def _mp_psi(prof, ts, n):
    """psi^(n) node by node in the solve's MP_DPS digits, as floats.

    40 digits are too few next to chi = 0: on Ruled(3, 2, 0.6) at chi = 1e-6
    on the solution curve a = 2.4e26 cancels against poly, and a 40-digit
    psi errs by 2.3e-14 of max|psi|.
    """
    f = (prof.psi_value, prof.psi_deriv, prof.psi_deriv2)[n]
    with mp.workdps(MP_DPS):
        return np.array([float(f(mpf(t))) for t in ts])


def _mp_certificate(prof, spec):
    """The scan certificate with psi and psi'' in MP_DPS digits at every node."""
    ts = _scan_nodes(spec)
    vals = _mp_psi(prof, ts, 0) / (1.0 - spec.k * ts)
    i = int(np.argmin(vals))
    d2 = _mp_psi(prof, ts, 2)
    inflections, flagged = [], prof.b == 0.0
    for j in np.nonzero(np.sign(d2[:-1]) * np.sign(d2[1:]) < 0)[0]:
        try:
            inflections.append(brentq(lambda t: _mp_psi(prof, [t], 2)[0], ts[j], ts[j + 1]))
        except ValueError:
            flagged = True
    tau0 = None if prof.b == 0.0 else -float(prof.a) / float(prof.b) - 3.0 / prof.chi
    return PositivityCertificate(float(vals[i]), float(ts[i]), tuple(inflections), tau0,
                                 bool(vals[i] > 0.0), "scan" if tau0 is None else "analytic+scan",
                                 flagged)


def _screen_cases():
    for name, spec in SCREEN_SURFACES.items():
        chis = [s * r / _width(spec) for r in (10.5, 11.5, 14.0, 20.0) for s in (1.0, -1.0)]
        if name in RULED_SCREEN:
            chis += [-0.009, -0.002, -1e-4, -1e-5]
        for chi in chis:
            yield pytest.param(name, chi, None, id=f"{name}-{chi:.6g}")
        # far off the solution curve at chi > 0: phi goes negative
        lam = -40.0 if name in RULED_SCREEN else 40.0
        yield pytest.param(name, chis[0], lam, id=f"{name}-{chis[0]:.6g}-off")


@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(SCREEN_SURFACES)),
       wide=st.booleans(),
       sign=st.sampled_from([1.0, -1.0]),
       u=st.floats(0.0, 1.0, exclude_max=True),
       on_curve=st.booleans(),
       lam_off=st.floats(-20.0, 20.0))
def test_float_form_matches_mp_at_every_scan_node(name, wide, sign, u, on_curve, lam_off):
    # psi, psi' and psi'' of an mp profile evaluated in floats are within
    # 1e-14 max|psi^(n)| of the MP_DPS-digit values at every node of the
    # certificate's scan, in both mp windows
    spec = SCREEN_SURFACES[name]
    chi = sign * (10.5 + 9.5 * u) / _width(spec) if wide else sign * 10.0 ** (-6.0 + 4.0 * u)
    prof = _mp_profile(spec, _curve_lambda(spec, chi) if on_curve else lam_off, chi)
    ts = _scan_nodes(spec)
    for n, f in enumerate((prof.psi_value, prof.psi_deriv, prof.psi_deriv2)):
        exact = _mp_psi(prof, ts, n)
        assert np.max(np.abs(f(ts) - exact)) <= 1e-14 * np.max(np.abs(exact)), n


@pytest.mark.parametrize("name, chi, lam", list(_screen_cases()))
def test_screened_certificate_equals_full_scan(name, chi, lam):
    # the certificate of an mp profile, scanned in floats, against the scan in
    # MP_DPS digits: the same verdict, argmin, tau0, method, flag and number of
    # inflections; min_phi within 2e-12 relative (it can sit next to a zero
    # end of phi) and each inflection within 1e-15
    spec = SCREEN_SURFACES[name]
    prof = _mp_profile(spec, _curve_lambda(spec, chi) if lam is None else lam, chi)
    got, want = positivity_certificate(prof, spec), _mp_certificate(prof, spec)
    assert ((got.verdict, got.argmin, got.tau0, got.method, got.flagged)
            == (want.verdict, want.argmin, want.tau0, want.method, want.flagged))
    assert got.min_phi == pytest.approx(want.min_phi, rel=2e-12, abs=0.0)
    assert got.inflection_points == pytest.approx(want.inflection_points, rel=0.0, abs=1e-15)
    if lam is not None:
        assert not got.verdict


def test_certificate_and_ode_check_make_no_mp_evaluation(monkeypatch):
    # a strong-band CP1(1) root and a P(O(1)+O) solve next to chi = 0, both
    # with mp coefficients: the 2 x 9999 scan nodes, the inflection refinement
    # and the 3 x 401 ODE nodes all go through the float form
    p2 = SurfaceSpec.p2_blowup()
    cases = ((CP1, solve_chi(CP1, 11.0, (5.2, 5.8))),
             (p2, solve_at(p2, _curve_lambda(p2, -1e-4), -1e-4)))
    mp_nodes = []
    original = ClosedFormProfile._psi_at

    def recording(self, t, n):
        mp_nodes.append(t)
        return original(self, t, n)

    monkeypatch.setattr(ClosedFormProfile, "_psi_at", recording)
    for spec, res in cases:
        assert res.profile.use_mp and res.certified
        w = TorusWeight(res.chi)
        assert repr(positivity_certificate(res.profile, spec)) == repr(res.positivity)
        assert ode_sup_residual(spec, res.profile, w, res.lam, res.c) == res.ode_sup_residual
    assert mp_nodes == []


# -- flat-disk limit -----------------------------------------------------------------


def test_flat_disk_gap_small_at_50():
    assert flat_disk_limit_gap(CP1, 50.0) < 0.01


def test_flat_disk_gap_decreases():
    assert flat_disk_limit_gap(CP1, 10.0) > flat_disk_limit_gap(CP1, 50.0)


def test_flat_disk_boundary_pinned():
    res = solve_at(CP1, cp1_lambda_of_chi(12.0), 12.0)
    assert res.profile.value(0.0) == pytest.approx(0.0, abs=1e-12)


def test_flat_disk_validation():
    with pytest.raises(ValueError):
        flat_disk_limit_gap(CP1, 5.0)
    with pytest.raises(ValueError):
        flat_disk_limit_gap(RULED, 50.0)


# -- ODE residual invariant -----------------------------------------------------------


def test_certified_solutions_have_small_ode_residual(rng):
    for lam, bracket, spec in (
        (0.0, (-0.5, -0.1), RULED),
        (1.0, (-1.0, -0.2), RULED),
        (5.0, (0.1, 5.0), CP1),
    ):
        res = solve_chi(spec, lam, bracket)
        assert res.ode_sup_residual <= 1e-8


# -- sampled representation ------------------------------------------------------


def test_sampled_profile_tracks_closed_form():
    from mucsck.profiles import sample_profile

    res = solve_chi(RULED, 0.0, (-0.5, -0.1))
    sampled = sample_profile(res.profile, n=513)
    ts = np.linspace(-1.9, -0.1, 101)
    assert np.max(np.abs(sampled.value(ts) - res.profile.value(ts))) <= 1e-9
    assert np.max(np.abs(sampled.deriv(ts) - res.profile.deriv(ts))) <= 1e-7
    vals = mu_scalar_curvature(RULED, sampled, TorusWeight(res.chi), 0.0, ts)
    assert np.max(np.abs(vals - res.c)) <= 1e-3  # spline second-derivative floor
