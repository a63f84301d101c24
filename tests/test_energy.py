import warnings

import numpy as np
import pytest
from mpmath import mpf
from numpy.polynomial.chebyshev import Chebyshev
from oracles import inverse_polynomial_jet

from mucsck.dh import TorusWeight
from mucsck.energy import (
    GeodesicPath,
    ReparametrizedPath,
    SymplecticPotential,
    _path_energies,
    _weight_data,
    geodesic_convexity,
    geodesic_equation_residual,
    muk_energy_chen_tian,
    muk_energy_endpoint_derivative,
    muk_energy_partial,
    muk_energy_path,
    potential_from_profile,
    profile_from_potential,
    relative_entropy,
    vector_field_path,
)
from mucsck.errors import DomainError, PathDegeneracyError
from mucsck.functionals import FunctionalContext, futaki
from mucsck.profiles import PolynomialProfile
from mucsck.solver import solve_chi
from mucsck.surfaces import SurfaceSpec

SPEC = SurfaceSpec.cp1(1.0)
FS = SPEC.reference_profile()
U_FS = potential_from_profile(FS, SPEC)
SOLVED = solve_chi(SPEC, 5.0, (0.1, 5.0))
U_SOLVED = potential_from_profile(SOLVED.profile, SPEC)
W_STAR = TorusWeight(SOLVED.chi)


def random_admissible_profile(rng, m=1.0):
    """Fubini-Study plus a double-root bump: all four boundary targets kept."""
    base = np.zeros(7)
    base[1], base[2] = 2.0, -1.0 / m
    bump = np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polypow((0.0, 1.0), 2),
        np.polynomial.polynomial.polypow((-2.0 * m, 1.0), 2),
    )
    while True:
        q = rng.uniform(-0.06, 0.06, size=3)
        coeffs = base.copy()
        extra = np.polynomial.polynomial.polymul(bump, q)
        coeffs[: len(extra)] += extra
        prof = PolynomialProfile(tuple(coeffs), (0.0, 2.0 * m))
        ts = np.linspace(0.0, 2.0 * m, 801)[1:-1]
        if np.all(prof.value(ts) > 0.0):
            return prof


# -- potentials -----------------------------------------------------------------


def test_fubini_study_potential_is_canonical():
    # smooth part affine: no Chebyshev content beyond degree 1
    coefs = U_FS.smooth.coef
    assert np.max(np.abs(coefs[2:])) < 1e-14 if len(coefs) > 2 else True
    ts = np.linspace(0.05, 1.95, 101)
    canon = SymplecticPotential.canonical(1.0)
    assert np.allclose(U_FS.d2(ts), canon.d2(ts), rtol=1e-12)


def test_fubini_study_smooth_part_chops_to_a_constant():
    # h = 1/phi - (canonical U'') vanishes for Fubini-Study, so its series is
    # all rounding next to the canonical part
    assert len(U_FS.smooth.coef) <= 3


def test_potential_jets_match_40_digit_derivatives(rng):
    # (U'', U''', U'''') against 1/phi and its derivatives in 40 digits, at
    # interior points; the unchopped degree-96 series was off by up to 5e-11,
    # 1e-8 and 6e-6, its rounding tail amplified by each derivative
    profiles = [SPEC.perturbed_profile(0.05)] + [random_admissible_profile(rng) for _ in range(6)]
    ts = np.linspace(0.05, 1.95, 39)
    worst = np.zeros(3)
    for prof in profiles:
        jet = potential_from_profile(prof, SPEC).jet(ts)
        for j, t in enumerate(ts):
            exact = inverse_polynomial_jet(prof.coeffs, t)
            errors = [abs(float(e - mpf(float(g)))) for e, g in zip(exact, jet[:, j])]
            worst = np.maximum(worst, errors)
    assert worst[0] <= 5e-12 and worst[1] <= 5e-10 and worst[2] <= 1e-8, worst


def test_round_trip_fubini_study():
    back = profile_from_potential(U_FS)
    ts = np.linspace(1e-3, 2.0 - 1e-3, 801)
    assert np.max(np.abs(back.value(ts) - FS.value(ts))) <= 1e-12


def test_round_trip_solver_output():
    back = profile_from_potential(U_SOLVED)
    ts = np.linspace(1e-3, 2.0 - 1e-3, 801)
    assert np.max(np.abs(back.value(ts) - SOLVED.profile.value(ts))) <= 1e-9


def test_round_trip_random_profiles(rng):
    for _ in range(3):
        prof = random_admissible_profile(rng)
        u = potential_from_profile(prof, SPEC)
        back = profile_from_potential(u)
        ts = np.linspace(1e-3, 2.0 - 1e-3, 401)
        assert np.max(np.abs(back.value(ts) - prof.value(ts))) <= 1e-9


def test_potential_rejects_nonpositive_profile():
    bad = PolynomialProfile((-1.1, 2.0, -1.0), (0.0, 2.0))
    with pytest.raises(DomainError):
        potential_from_profile(bad, SPEC)


def test_no_linearity_of_legendre_map():
    # U of a sum is not the sum of U's: phi -> 1/U'' is nonlinear
    doubled = PolynomialProfile((0.0, 4.0, -2.0), (0.0, 2.0))
    u_doubled = potential_from_profile(doubled, SPEC)
    ts = np.linspace(0.2, 1.8, 11)
    assert not np.allclose(u_doubled.d2(ts), 2.0 * U_FS.d2(ts), rtol=1e-3)


# -- path energy -----------------------------------------------------------------


def test_constant_path_vanishes():
    path = GeodesicPath(U_FS, U_FS)
    assert muk_energy_path(SPEC, W_STAR, 5.0, path) == 0.0


def test_endpoint_derivative_vanishes_at_solution(rng):
    # the certified metric is a critical point: 20 random directions
    for _ in range(20):
        coefs = rng.normal(size=6) * 0.1
        direction = Chebyshev(coefs, domain=[0.0, 2.0])
        d = muk_energy_endpoint_derivative(SPEC, W_STAR, 5.0, U_SOLVED, direction)
        assert abs(d) <= 1e-6


def test_path_independence_reparametrization():
    path = GeodesicPath(U_FS, U_SOLVED)
    gamma = lambda t: t * t * (3.0 - 2.0 * t)  # noqa: E731
    dgamma = lambda t: 6.0 * t * (1.0 - t)  # noqa: E731
    rp = ReparametrizedPath(path, gamma, dgamma)
    a = muk_energy_path(SPEC, W_STAR, 5.0, path)
    b = muk_energy_path(SPEC, W_STAR, 5.0, rp)
    assert abs(a - b) <= 1e-6


def test_gauge_invariance_additive_velocity():
    # adding a time-dependent constant to the potential velocity leaves the
    # energy unchanged (the centered curvature has weighted mean zero)
    path = GeodesicPath(U_FS, U_SOLVED)

    class Gauged:
        def jets(self, nodes):
            base = path.jets(nodes)

            def at_time(t):
                jet, vel = base(t)
                return jet, vel + 3.7 * (1 + t)

            return at_time

    a = muk_energy_path(SPEC, W_STAR, 5.0, path)
    b = muk_energy_path(SPEC, W_STAR, 5.0, Gauged())
    assert abs(a - b) <= 1e-10


def test_weights_are_shift_safe_for_both_signs():
    # e^{-chi tau} alone overflows at chi = -400 on [0, 2]; measured from the
    # end where it peaks, no factor exceeds 1, and the line's symmetry maps
    # the weights at chi onto those at -chi
    qs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for chi in (400.0, -400.0):
            q = _weight_data(SPEC, TorusWeight(chi))[1]
            assert np.all(np.isfinite(q)) and np.sum(q) == pytest.approx(1.0, rel=1e-14)
            qs[chi] = q
    np.testing.assert_allclose(qs[-400.0][::-1], qs[400.0], rtol=1e-12, atol=0.0)


def test_jets_match_the_potential_at_each_time(rng):
    # the affine combination of the endpoint jets is the jet of the path's
    # potential at t, for the geodesic and for a reparametrized clock
    nodes = _weight_data(SPEC, TorusWeight(0.3))[0]
    path = GeodesicPath(U_FS, potential_from_profile(random_admissible_profile(rng), SPEC))
    gamma = lambda t: t * t * (3.0 - 2.0 * t)  # noqa: E731
    dgamma = lambda t: 6.0 * t * (1.0 - t)  # noqa: E731
    rp = ReparametrizedPath(path, gamma, dgamma)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    for p, clock, speed in ((path, lambda t: t, lambda t: 1.0), (rp, gamma, dgamma)):
        jets = p.jets(nodes)
        for t in rng.uniform(0.0, 1.0, size=10):
            jet, vel = jets(t)
            pot = p.at(t)
            for got, want in zip(jet, (pot.d2(nodes), pot.d3(nodes), pot.d4(nodes))):
                assert close(got, want)
            assert close(vel, speed(t) * path.velocity(clock(t))(nodes))


def test_grid_energies_match_restarts_from_zero(rng):
    # one pass adds the panels [t_{i-1}, t_i] in another order than a restart
    # from t = 0 at each time: equal to rounding, and the first time is the
    # same [0, t] rule bit for bit; the times need not be sorted
    path = GeodesicPath(U_FS, potential_from_profile(random_admissible_profile(rng), SPEC))
    w, ts = TorusWeight(0.4), [0.0, 0.3, 0.55, 1.0, 0.8]
    grid = _path_energies(SPEC, w, 2.0, path, ts)
    restarts = np.array([muk_energy_partial(SPEC, w, 2.0, path, t) for t in ts])
    assert grid[0] == 0.0 and grid[1] == restarts[1]
    assert np.max(np.abs(grid - restarts)) <= 1e-15


def test_degenerate_path_raises_with_location():
    spoil = Chebyshev([0.0, 0.0, -30.0], domain=[0.0, 2.0])
    u_bad = U_FS.plus_smooth(spoil)
    path = GeodesicPath(U_FS, u_bad)
    with pytest.raises(PathDegeneracyError) as err:
        muk_energy_path(SPEC, TorusWeight(0.0), 0.0, path)
    assert err.value.t is not None


# -- two-route equivalence ------------------------------------------------------------


def test_two_routes_agree_on_random_pairs(rng):
    for k in range(10):
        p0 = random_admissible_profile(rng)
        p1 = random_admissible_profile(rng)
        u0 = potential_from_profile(p0, SPEC)
        u1 = potential_from_profile(p1, SPEC)
        chi = rng.uniform(-1.5, 1.5)
        lam = rng.uniform(-2.0, 6.0)
        w = TorusWeight(chi)
        m_path = muk_energy_path(SPEC, w, lam, GeodesicPath(u0, u1))
        m_ct = muk_energy_chen_tian(SPEC, w, lam, u0, u1)
        assert abs(m_path - m_ct) <= 1e-6
        assert relative_entropy(SPEC, w, u0, u1) >= 0.0


def test_two_routes_agree_to_rounding_on_random_pairs(rng):
    # the pairs of test_two_routes_agree_on_random_pairs; measured worst 2.9e-14
    for k in range(10):
        u0 = potential_from_profile(random_admissible_profile(rng), SPEC)
        u1 = potential_from_profile(random_admissible_profile(rng), SPEC)
        w, lam = TorusWeight(rng.uniform(-1.5, 1.5)), rng.uniform(-2.0, 6.0)
        m_path = muk_energy_path(SPEC, w, lam, GeodesicPath(u0, u1))
        assert abs(m_path - muk_energy_chen_tian(SPEC, w, lam, u0, u1)) <= 1e-12


def test_chen_tian_composes_blocks_of_times_in_batched_newton_solves(rng, monkeypatch):
    # the 32 t-nodes' moment maps come from two Newton solves per block of
    # _T_BLOCK t-nodes, plus one for the entropy (65 solves, two per t-node,
    # before the batching); the route never builds the potential at a time t
    import mucsck.energy as energy

    solves, times = [], []
    newton, at = energy._newton_slope, GeodesicPath.at
    monkeypatch.setattr(energy, "_newton_slope", lambda *a: solves.append(a) or newton(*a))
    monkeypatch.setattr(GeodesicPath, "at", lambda self, t: times.append(t) or at(self, t))
    u1 = potential_from_profile(random_admissible_profile(rng), SPEC)
    muk_energy_chen_tian(SPEC, TorusWeight(0.7), 2.0, U_FS, u1)
    assert len(solves) == 1 + 2 * energy.T_GAUSS_NODES // energy._T_BLOCK and times == []
    assert {np.shape(args[4]) for args in solves[1:]} == {(energy._T_BLOCK, 1024)}


def test_chen_tian_equal_endpoints_zero():
    assert muk_energy_chen_tian(SPEC, TorusWeight(0.9), 2.0, U_FS, U_FS) == pytest.approx(
        0.0, abs=1e-12
    )


def test_entropy_nonnegative_both_orders():
    for chi in (0.0, 0.7, -1.4):
        assert relative_entropy(SPEC, TorusWeight(chi), U_FS, U_SOLVED) >= 0.0
        assert relative_entropy(SPEC, TorusWeight(chi), U_SOLVED, U_FS) >= 0.0


# -- geodesics --------------------------------------------------------------------------


def test_convexity_along_geodesic():
    path = GeodesicPath(U_FS, U_SOLVED)
    second = geodesic_convexity(SPEC, TorusWeight(0.0), 0.0, path, np.linspace(0, 1, 21))
    assert all(s >= -1e-8 for s in second)


def test_convexity_three_point_verdict():
    path = GeodesicPath(U_FS, U_SOLVED)
    coarse = geodesic_convexity(SPEC, TorusWeight(0.0), 0.0, path, [0.0, 0.5, 1.0])
    fine = geodesic_convexity(SPEC, TorusWeight(0.0), 0.0, path, np.linspace(0, 1, 21))
    assert np.sign(coarse[0]) == np.sign(min(fine))


def test_vector_field_geodesic_slope_is_minus_futaki():
    ctx = FunctionalContext(SPEC)
    for chi_dir in (0.8, -1.3):
        vf = vector_field_path(U_FS, chi_dir)
        w = TorusWeight(0.5)
        slope = muk_energy_path(SPEC, w, 2.0, vf)  # affine in t, so M(1) = slope
        fut = futaki(ctx, w, TorusWeight(chi_dir), 2.0)
        assert abs(slope + fut) <= 1e-7
        second = geodesic_convexity(SPEC, w, 2.0, vf, np.linspace(0, 1, 7))
        assert np.max(np.abs(second)) <= 1e-10


def test_geodesic_equation_residual_linear_path():
    path = GeodesicPath(U_FS, U_SOLVED)
    rhos = np.linspace(-1.5, 1.5, 7)
    assert geodesic_equation_residual(path, 0.5, rhos) <= 1e-6


def test_geodesic_equation_detects_non_geodesic():
    path = GeodesicPath(U_FS, U_SOLVED)
    gamma = lambda t: t * t * (3.0 - 2.0 * t)  # noqa: E731
    dgamma = lambda t: 6.0 * t * (1.0 - t)  # noqa: E731
    rp = ReparametrizedPath(path, gamma, dgamma)
    rhos = np.linspace(-1.0, 1.0, 5)
    assert geodesic_equation_residual(rp, 0.3, rhos) > 1e-4


def test_cross_module_slope_consistency():
    # energy-side slope against the quadrature-side obstruction at the
    # solved weight, where both must vanish
    vf = vector_field_path(U_SOLVED, 1.0)
    slope = muk_energy_path(SPEC, W_STAR, 5.0, vf)
    assert abs(slope) <= 1e-7


def test_round_trip_other_class_parameter():
    spec2 = SurfaceSpec.cp1(2.0)
    fs2 = spec2.reference_profile()
    u2 = potential_from_profile(fs2, spec2)
    back = profile_from_potential(u2)
    ts = np.linspace(1e-3, 4.0 - 1e-3, 401)
    assert np.max(np.abs(back.value(ts) - fs2.value(ts))) <= 1e-10


def test_invert_uprime_against_forward_map(rng):
    from mucsck.energy import invert_uprime

    prof = random_admissible_profile(rng)
    pot = potential_from_profile(prof, SPEC)
    taus = np.linspace(1e-4, 2.0 - 1e-4, 301)
    targets = pot.d1(taus)
    recovered = invert_uprime(pot, targets)
    assert np.max(np.abs(recovered - taus)) <= 1e-10


def test_invert_uprime_extreme_targets():
    from mucsck.energy import invert_uprime

    # in the tails the solution hugs the interval ends but stays interior;
    # the forward map reproduces the target up to the (2m - tau) subtraction
    # floor near the upper end
    targets = np.array([-10.0, -5.0, 5.0, 10.0])
    out = invert_uprime(U_FS, targets)
    assert np.all((out > 0.0) & (out < 2.0))
    assert np.allclose(U_FS.d1(out), targets, atol=1e-7)


def test_chen_tian_rejects_degenerate_endpoint():
    spoil = Chebyshev([0.0, 0.0, -30.0], domain=[0.0, 2.0])
    u_bad = U_FS.plus_smooth(spoil)
    with pytest.raises(PathDegeneracyError):
        muk_energy_chen_tian(SPEC, TorusWeight(0.0), 0.0, U_FS, u_bad)


@pytest.mark.parametrize("route", ["path", "partial", "convexity"])
def test_energy_routes_reject_ruled_surface(route):
    # every route reports the unsupported surface, not a lost convexity
    ruled, path, w = SurfaceSpec.p2_blowup(), GeodesicPath(U_FS, U_SOLVED), TorusWeight(0.3)
    calls = {
        "path": lambda: muk_energy_path(ruled, w, 1.0, path),
        "partial": lambda: muk_energy_partial(ruled, w, 1.0, path, 0.5),
        "convexity": lambda: geodesic_convexity(ruled, w, 1.0, path, [0.0, 0.5, 1.0]),
    }
    with pytest.raises(ValueError, match="implemented on the line"):
        calls[route]()
