"""Weighted Mabuchi-type energy on the line via symplectic potentials.

A circle-invariant metric on the line is encoded by its symplectic potential
U(tau) = (canonical boundary-singular part) + (smooth Chebyshev part), with
momentum profile phi = 1/U''.  Linear paths of symplectic potentials realize
geodesics; the energy functional is evaluated two independent ways:

* the path definition: minus the t-integral of the centered weighted
  curvature paired with the potential velocity;
* the endpoint-entropy expression: a relative-entropy term between the two
  weighted volume measures compared at the same base point (through the
  composed moment maps) plus the remaining t-integral terms built from the
  reference metric only.

Both are normalized per weighted volume, so the slope of the flow-generated
geodesic equals minus the obstruction functional exactly.  Both integrate in
tau on one grid: the dh composite Gauss-Legendre rule with TAU_PANELS
uniform panels, without refinement at the endpoints (the integrands stay
smooth there because the canonical part of U absorbs the boundary
singularity), and in t with one cumulative pass over a sorted time grid,
`_t_integrals`.  The tau weights are e^{-chi (tau - ref)}, ref the end
`dh._peak_end` picks, so none exceeds 1.  The curvature comes from the one
formula in the solver.

A potential's smooth part interpolates at degree DEFAULT_DEG and is then
chopped where its coefficients reach their rounding plateau (`_chopped`,
at machine epsilon against the canonical part's size): an evaluation pays
for the 15-30 coefficients that carry an admissible profile (one for
Fubini-Study), not for the rounding tail that each derivative would
amplify into the jets.

On the path route the path supplies its jets on the tau nodes (`jets`):
U_t is affine in t along a geodesic, so the endpoints' (U'', U''', U'''')
and the velocity are evaluated once, and each t-node only combines those
arrays and checks U_t'' > 0.  The endpoint-entropy route stays independent
of this: it composes moment maps and never reads the path's jets.  The
compositions of a block of _T_BLOCK t-nodes are two Newton solves over a
(t x tau) array (`_compositions_along`): U_t' = (1 - t) U_0' + t U_1', so
row t carries its own series (1 - t) c_0 + t c_1.  One Newton,
`_newton_slope`, serves these and `invert_uprime`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev, chebval
from scipy.optimize import brentq

from .dh import TorusWeight, _panel_nodes, _peak_end
from .errors import DomainError, EvaluationError, PathDegeneracyError
from .solver import mu_curvatures
from .surfaces import CP1, SurfaceSpec

T_GAUSS_NODES = 32
TAU_PANELS = 64
DEFAULT_DEG = 96
# t-nodes per batched composition: an (8 x 1024) array takes 64 KB; one
# batch of all 32 rows (262 KB arrays) was no faster and raised the peak
# resident memory of a run by 1.3 MB
_T_BLOCK = 8

_TX, _TW = np.polynomial.legendre.leggauss(T_GAUSS_NODES)


@dataclass(frozen=True)
class SymplecticPotential:
    """U = (1/2)[tau log tau + (2m - tau) log(2m - tau)] + smooth part.

    The canonical part absorbs the full boundary log-singularity under the
    profile-slope convention phi'(0) = 2, phi'(2m) = -2, so the smooth part
    and its first two derivatives are bounded.
    """

    m: float
    smooth: Chebyshev

    @classmethod
    def canonical(cls, m: float) -> "SymplecticPotential":
        return cls(float(m), Chebyshev([0.0], domain=[0.0, 2.0 * m]))

    @classmethod
    def from_profile(cls, profile, m: float) -> "SymplecticPotential":
        """Legendre-side potential of a positive, boundary-compatible profile.

        The smooth part interpolates h = 1/phi - (canonical U'') at degree
        DEFAULT_DEG, integrated twice, and is chopped where its coefficients
        reach their rounding plateau (`_chopped`).
        """
        m = float(m)
        width = 2.0 * m

        def h(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(all="ignore"):
                phi = np.asarray(profile.value(t), dtype=float)
            if not np.all(np.isfinite(phi)):
                raise EvaluationError(f"the profile is not finite on the interval at m={m!r}")
            if np.any(phi[(t > 0) & (t < width)] <= 0.0):
                raise DomainError("profile must be positive on the open interval")
            return 1.0 / phi - 0.5 * (1.0 / t + 1.0 / (width - t))

        # interpolation nodes stay interior, so the cancelled singularity is
        # never evaluated at the endpoints
        smooth = Chebyshev.interpolate(h, DEFAULT_DEG, domain=[0.0, width]).integ(2, lbnd=m)
        # the canonical part is convex with its least value m log m at tau = m
        # and its largest m log 2m at the ends
        return cls(m, _chopped(smooth, max(abs(m * np.log(m)), abs(m * np.log(width)))))

    def _parts(self, t, order):
        t = np.asarray(t, dtype=float)
        w = 2.0 * self.m
        with np.errstate(all="ignore"):  # a non-finite jet is reported by `jet`
            if order == 0:
                tlog = np.where(t > 0.0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)
                wlog = np.where(t < w, (w - t) * np.log(np.where(t < w, w - t, 1.0)), 0.0)
                return 0.5 * (tlog + wlog)
            if order == 1:
                return 0.5 * (np.log(t) - np.log(w - t))
            if order == 2:
                return 0.5 * (1.0 / t + 1.0 / (w - t))
            if order == 3:
                return 0.5 * (-1.0 / t ** 2 + 1.0 / (w - t) ** 2)
            if order == 4:
                return 0.5 * (2.0 / t ** 3 + 2.0 / (w - t) ** 3)
        raise ValueError(order)

    @cached_property
    def _smooth_derivs(self):
        """(smooth', smooth'', smooth''', smooth''''), built once per potential.

        Each series is the derivative of the one before, which gives the
        coefficients of smooth.deriv(k) bit for bit.
        """
        derivs = [self.smooth.deriv(1)]
        for _ in range(3):
            derivs.append(derivs[-1].deriv(1))
        return tuple(derivs)

    def value(self, t):
        return self._parts(t, 0) + self.smooth(np.asarray(t, dtype=float))

    def d1(self, t):
        return self._parts(t, 1) + self._smooth_derivs[0](np.asarray(t, dtype=float))

    def d2(self, t):
        return self._parts(t, 2) + self._smooth_derivs[1](np.asarray(t, dtype=float))

    def d3(self, t):
        return self._parts(t, 3) + self._smooth_derivs[2](np.asarray(t, dtype=float))

    def d4(self, t):
        return self._parts(t, 4) + self._smooth_derivs[3](np.asarray(t, dtype=float))

    def jet(self, t):
        """(U'', U''', U'''') at the points t, stacked in one array."""
        jet = np.array([self.d2(t), self.d3(t), self.d4(t)])
        if not np.all(np.isfinite(jet)):
            raise EvaluationError(
                f"the potential's jet (U'', U''', U'''') is not finite at m={self.m!r}")
        return jet

    def plus_smooth(self, extra: Chebyshev) -> "SymplecticPotential":
        return SymplecticPotential(self.m, self.smooth + extra)

    def smooth_max_dslope(self) -> float:
        ts = np.linspace(0.0, 2.0 * self.m, 257)
        return float(np.max(np.abs(self._smooth_derivs[0](ts))))


def _chopped(series: Chebyshev, scale: float) -> Chebyshev:
    """The series cut where its coefficients reach their rounding plateau.

    standardChop of Aurentz and Trefethen ("Chopping a Chebyshev series",
    ACM TOMS 2017) at machine epsilon, measured against the larger of the
    coefficients and `scale`: a series that is all rounding next to scale
    becomes a constant.
    """
    coef = series.coef
    top = float(np.max(np.abs(coef)))
    tol = np.finfo(float).eps * max(1.0, scale / top) if top > 0.0 else 1.0
    n = len(coef)
    if tol >= 1.0:
        return Chebyshev(coef[:1], domain=series.domain)
    if n < 17:
        return series
    # the envelope: the largest magnitude from each coefficient on, normalized
    env = np.maximum.accumulate(np.abs(coef)[::-1])[::-1] / top
    # a plateau starts at j (counted from 1) where the envelope stops falling
    for j in range(2, n + 1):
        j2 = math.floor(1.25 * j + 5.5)
        if j2 > n:
            return series
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)):
            break
    if env[j - 2] == 0.0:
        return Chebyshev(coef[:j - 1], domain=series.domain)
    # cut where the envelope, tilted toward the low degrees, is least
    floor = tol ** (7.0 / 6.0)
    j3 = int(np.sum(env >= floor))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = floor
    tilted = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return Chebyshev(coef[:max(int(np.argmin(tilted)), 1)], domain=series.domain)


class PotentialProfile:
    """Momentum profile phi = 1/U'' of a symplectic potential."""

    def __init__(self, potential: SymplecticPotential):
        self.potential = potential
        self.domain = (0.0, 2.0 * potential.m)

    def value(self, t):
        return 1.0 / self.potential.d2(t)

    def deriv(self, t):
        return _phi_jet(self.potential.jet(t))[1]

    def deriv2(self, t):
        return _phi_jet(self.potential.jet(t))[2]


def potential_from_profile(profile, spec: SurfaceSpec) -> SymplecticPotential:
    if spec.kind != CP1:
        raise ValueError("symplectic-potential machinery is implemented on the line")
    return SymplecticPotential.from_profile(profile, spec.m)


def profile_from_potential(potential: SymplecticPotential) -> PotentialProfile:
    return PotentialProfile(potential)


# -- paths -----------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicPath:
    """Linear path of symplectic potentials: U_t = (1-t) U_0 + t U_1."""

    u0: SymplecticPotential
    u1: SymplecticPotential

    def __post_init__(self):
        if self.u0.m != self.u1.m:
            raise ValueError("endpoints live on different momentum intervals")

    def at(self, t: float) -> SymplecticPotential:
        return SymplecticPotential(self.u0.m, (1.0 - t) * self.u0.smooth + t * self.u1.smooth)

    def velocity(self, t: float) -> Chebyshev:
        return self.u1.smooth - self.u0.smooth

    def jets(self, nodes):
        """t -> (jet of U_t, velocity), both as values at the nodes.

        U_t is affine in t, so its jet (U_t'', U_t''', U_t'''') is the same
        affine combination of the endpoints' jets, which are evaluated here
        once; the velocity U_1 - U_0 does not depend on t.  The combination
        is spelled e0 + t (e1 - e0): equal endpoints then give U_0's jet at
        every t, also far outside [0, 1].
        """
        e0 = self.u0.jet(nodes)
        de = self.u1.jet(nodes) - e0
        vel = (self.u1.smooth - self.u0.smooth)(nodes)
        return lambda t: (e0 + t * de, vel)


@dataclass(frozen=True)
class ReparametrizedPath:
    """The same trace run with a different clock: t -> base.at(gamma(t))."""

    base: GeodesicPath
    gamma: object
    dgamma: object

    def at(self, t: float) -> SymplecticPotential:
        return self.base.at(self.gamma(t))

    def jets(self, nodes):
        """The base path's jets at gamma(t), with the velocity scaled by gamma'(t)."""
        base = self.base.jets(nodes)

        def at_time(t):
            jet, vel = base(self.gamma(t))
            return jet, self.dgamma(t) * vel

        return at_time


def vector_field_path(u0: SymplecticPotential, chi_dir: float) -> GeodesicPath:
    """Geodesic generated by the holomorphic flow of the weight-chi_dir field."""
    # chi_dir * tau in the Chebyshev basis on [0, 2m]
    affine = Chebyshev([chi_dir * u0.m, chi_dir * u0.m], domain=[0.0, 2.0 * u0.m])
    return GeodesicPath(u0, u0.plus_smooth(affine))


# -- quadrature grid and pointwise curvature -------------------------------------------


def _weight_data(spec: SurfaceSpec, w: TorusWeight):
    """(nodes, q): the tau nodes and the weights of the weighted measure on
    them, normalized to sum 1, so that q @ f is the weighted average of f."""
    if spec.kind != CP1:
        raise ValueError("energy functional is implemented on the line")
    meas = spec.measure
    nodes, wts = _panel_nodes(meas, TAU_PANELS)
    ref = (meas.tau_min, meas.tau_max)[int(_peak_end(w.chi))]
    with np.errstate(over="ignore"):  # -chi (tau - ref) <= 0: an overflow is e^{-inf} = 0
        q = meas.density(nodes) * meas.scale * np.exp(-w.chi * (nodes - ref)) * wts
    if not 0.0 < np.sum(q) < np.inf:
        raise EvaluationError(f"the weighted mass vanishes or is not finite at chi={w.chi!r}")
    return nodes, q / np.sum(q)


def _phi_jet(u_jet, t=None):
    """(phi, phi', phi'') of phi = 1/U'' from the values of (U'', U''', U'''').

    U'' <= 0 anywhere means the potential is not convex there and phi is no
    metric: PathDegeneracyError, carrying the path time t.
    """
    u2, u3, u4 = u_jet
    if np.any(u2 <= 0.0):
        raise PathDegeneracyError("potential lost convexity", t=t)
    return 1.0 / u2, -u3 / u2 ** 2, -u4 / u2 ** 2 + 2.0 * u3 ** 2 / u2 ** 3


def _inner_product(spec, w, lam, phi_jet, vel_vals, grid):
    """<shat^lam(g_t), U-dot>_w / V_w at one path time t, from the phi-jet of
    g_t and the velocity values at the grid nodes."""
    nodes, q = grid
    s_lam, s_box = mu_curvatures(spec, w.chi, lam, nodes, phi_jet)
    sbar_lam = q @ s_box + lam * w.chi * (q @ nodes)
    return float(q @ ((s_lam - sbar_lam) * vel_vals))


def _t_integrals(rate, t_grid):
    """int_0^t rate for every t >= 0 of t_grid (any order): one Gauss rule per
    panel [t_{i-1}, t_i] of the sorted times (t_0 = 0), so the rate is
    evaluated once per t-node and a repeated time costs nothing."""
    ts = np.asarray(t_grid, dtype=float)
    if np.any(ts < 0.0):
        raise ValueError("path times must be nonnegative")
    out = np.empty(ts.shape)
    total = start = 0.0
    for i in np.argsort(ts, kind="stable"):
        if ts[i] > start:
            half = 0.5 * (ts[i] - start)
            for x, xw in zip(_TX, _TW):
                total += half * xw * rate(start + half * (x + 1.0))
            start = ts[i]
        out[i] = total
    return out


def _path_energies(spec: SurfaceSpec, w: TorusWeight, lam: float, path, t_grid):
    """Path-integral energies M(t) for every t in t_grid, from one cumulative pass."""
    grid = _weight_data(spec, w)
    jets = path.jets(grid[0])

    def rate(t):
        u_jet, vel = jets(t)
        return _inner_product(spec, w, lam, _phi_jet(u_jet, t), vel, grid)

    # phi's jet overflows where U'' nears the float range's ends (m = 1e+-300):
    # one check of the energies, not one per t-node
    with np.errstate(all="ignore"):
        energies = _t_integrals(rate, t_grid)
    if not np.all(np.isfinite(energies)):
        raise EvaluationError(f"the path energy is not finite at m={spec.m!r}")
    return energies


def muk_energy_path(spec: SurfaceSpec, w: TorusWeight, lam: float, path) -> float:
    """Path-integral energy along t in [0, 1]."""
    return float(_path_energies(spec, w, lam, path, [1.0])[0])


def muk_energy_endpoint_derivative(
    spec: SurfaceSpec, w: TorusWeight, lam: float, u_end: SymplecticPotential, direction: Chebyshev
) -> float:
    """d/ds of the energy when the endpoint moves by s * direction."""
    grid = _weight_data(spec, w)
    nodes = grid[0]
    return _inner_product(spec, w, lam, _phi_jet(u_end.jet(nodes)), direction(nodes), grid)


# -- moment-map composition -----------------------------------------------------------------


def _newton_slope(d1, d2, width, targets, y, bound):
    """tau in (0, width) with U'(tau) = targets, by Newton from y.

    tau = width sigmoid(y), so U'(tau(y)) = y/2 + smooth'(tau(y)) is
    strictly increasing in y and every iterate stays inside the open
    interval.  d1 and d2 hold the Chebyshev coefficients of smooth' and
    smooth'' on [0, width] along their first axis; their other axes
    broadcast against targets, so one call solves a batch of potentials,
    one series each.  A point that misses the 1e-13 test after 60 steps is
    solved by brentq on [2 (target - M), 2 (target + M)], M = bound() + 1
    with bound() >= max |smooth'|.
    """
    targets, y = np.broadcast_arrays(np.asarray(targets, dtype=float), np.asarray(y, dtype=float))
    scl = 2.0 / width  # the map of [0, width] onto the series' window [-1, 1]

    def tau_of(y):
        return width / (1.0 + np.exp(-y))

    def series(c, tau):
        return chebval(-1.0 + scl * tau, c, tensor=False)

    ok = np.zeros(targets.shape, dtype=bool)
    for _ in range(60):
        tau = tau_of(y)
        F = 0.5 * y + series(d1, tau) - targets
        ok = np.abs(F) <= 1e-13 * np.maximum(1.0, np.abs(targets))
        if np.all(ok):
            break
        dF = 0.5 + series(d2, tau) * tau * (1.0 - tau / width)
        step = np.where(ok, 0.0, F / np.maximum(dF, 1e-3))
        y = y - np.clip(step, -5.0, 5.0)
    if not np.all(ok):
        y, M = np.array(y), bound() + 1.0
        per_point = np.broadcast_to(d1.reshape(d1.shape + (1,) * (1 + targets.ndim - d1.ndim)),
                                    d1.shape[:1] + targets.shape)
        for i in map(tuple, np.argwhere(~ok)):
            c, target = per_point[(slice(None),) + i], targets[i]
            g = lambda yy: 0.5 * yy + float(series(c, tau_of(yy))) - target  # noqa: E731
            y[i] = brentq(g, 2.0 * (target - M), 2.0 * (target + M), xtol=1e-14)
    return tau_of(y)


def invert_uprime(pot: SymplecticPotential, targets):
    """Solve U'(tau) = target for tau, vectorized: Newton from y = 2 target,
    where U'(tau(y)) - target is y/2 + smooth' - target (`_newton_slope`)."""
    targets = np.asarray(targets, dtype=float)
    d1, d2 = (d.coef for d in pot._smooth_derivs[:2])
    return _newton_slope(d1, d2, 2.0 * pot.m, targets, 2.0 * targets, pot.smooth_max_dslope)


def compose_moment_maps(u_from: SymplecticPotential, u_to: SymplecticPotential, taus):
    """tau_to(tau_from): the to-side momentum of the point with from-side
    momentum tau, i.e. (U_to')^{-1} (U_from')."""
    return invert_uprime(u_to, u_from.d1(taus))


def _compositions_along(u0: SymplecticPotential, u1: SymplecticPotential, nodes, ts):
    """The moment maps composed between U_0 and each U_t = (1 - t) U_0 + t U_1,
    for all times ts at once: (tau_t, sigma_t), arrays of shape (len(ts),
    len(nodes)) with U_t'(tau_t) = U_0'(nodes) and U_0'(sigma_t) = U_t'(nodes).

    U_t' is the canonical part's slope plus the series (1 - t) c_0 + t c_1
    of the smooth slopes, one row per time, and U_t'(nodes) is the same
    combination of the endpoints' slopes there.  Both solutions are the
    nodes at t = 0, and both Newton solves start one tangent step in t
    from there: differentiating U_t'(tau_t) = U_0'(nodes) and U_0'(sigma_t)
    = U_t'(nodes) at t = 0 gives dy/dt = -g and +g with g = (smooth_1' -
    smooth_0') / (dU_0'/dy) at the nodes, in the Newton variable y.
    """
    width = 2.0 * u0.m
    t = np.asarray(ts, dtype=float)[:, None]
    s0, s1 = u0._smooth_derivs, u1._smooth_derivs

    def row_series(k):
        a, b = s0[k].coef, s1[k].coef
        n = max(len(a), len(b))
        rows = (1.0 - t) * np.pad(a, (0, n - len(a))) + t * np.pad(b, (0, n - len(b)))
        return rows.T[:, :, None]

    def bound():
        return max(u0.smooth_max_dslope(), u1.smooth_max_dslope())

    y0 = np.log(nodes) - np.log(width - nodes)
    g = (s1[0](nodes) - s0[0](nodes)) / (0.5 + s0[1](nodes) * nodes * (1.0 - nodes / width))
    slope0, slope1 = u0.d1(nodes), u1.d1(nodes)
    tau_t = _newton_slope(row_series(0), row_series(1), width, slope0, y0 - t * g, bound)
    sigma_t = _newton_slope(s0[0].coef, s0[1].coef, width, (1.0 - t) * slope0 + t * slope1,
                            y0 + t * g, u0.smooth_max_dslope)
    return tau_t, sigma_t


# -- the endpoint-entropy route ----------------------------------------------------------------


def relative_entropy(spec: SurfaceSpec, w: TorusWeight, u0, u1) -> float:
    """int log(d nu / d mu) d nu / V for the two weighted volume measures.

    The density ratio at a common base point, written in the u1-momentum
    coordinate, is e^{-chi (tau - tau_0(tau))} phi_1(tau) / phi_0(tau_0(tau))
    with tau_0 the composed moment map.
    """
    nodes, q = _weight_data(spec, w)
    f1 = _phi_jet(u1.jet(nodes))[0]
    tau0 = compose_moment_maps(u1, u0, nodes)
    f0 = _phi_jet(u0.jet(tau0))[0]
    return float(q @ (-w.chi * (nodes - tau0) + np.log(f1 / f0)))


def muk_energy_chen_tian(spec: SurfaceSpec, w: TorusWeight, lam: float, u0, u1) -> float:
    """Endpoint-entropy expression of the energy.

    The curvature integral is traded for the relative entropy of the two
    weighted measures; the remaining terms stay as t-integrals but involve
    only reference-metric data composed through the moment maps, _T_BLOCK
    Gauss times at once (one row per time).
    """
    chi = w.chi
    nodes, q = _weight_data(spec, w)

    _, box0 = mu_curvatures(spec, chi, lam, nodes, _phi_jet(u0.jet(nodes)))
    sbar0 = q @ box0
    theta_bar = -chi * (q @ nodes)
    entropy = relative_entropy(spec, w, u0, u1)

    vel = u1.smooth - u0.smooth
    phidot = -vel(nodes)
    base_int = q @ phidot
    theta_int = q @ (-chi * nodes * phidot)
    # the sbar/lam terms: g_t-momentum integrals of the t-independent phi-dot
    rest = sbar0 * base_int + lam * (theta_int - theta_bar * base_int)
    total = 0.0
    for block in np.split(np.arange(T_GAUSS_NODES), T_GAUSS_NODES // _T_BLOCK):
        tau_t, sigma_t = _compositions_along(u0, u1, nodes, 0.5 * (_TX[block] + 1.0))
        # two-form piece: base-momentum integral against the weight of g_t;
        # the line's density is 1, so that weight is q e^{-chi (tau_t - tau)}
        two_form = (-vel(tau_t) * np.exp(-chi * (tau_t - nodes)) * box0) @ q
        # zero-form piece: g_t-momentum integral
        f0, f0p, _ = _phi_jet(u0.jet(sigma_t))
        zero_form = (phidot * (chi * f0p - chi ** 2 * f0)) @ q
        total += 0.5 * _TW[block] @ (rest - (two_form + zero_form))
    return entropy + float(total)


# -- convexity and the geodesic equation ---------------------------------------------------------


def muk_energy_partial(spec: SurfaceSpec, w: TorusWeight, lam: float, path, t_end: float) -> float:
    """Energy accumulated along the path restricted to [0, t_end]."""
    return float(_path_energies(spec, w, lam, path, [t_end])[0])


def geodesic_convexity(spec: SurfaceSpec, w: TorusWeight, lam: float, path, t_grid):
    """Second differences of the energy along the path; all must be >= -1e-8."""
    ts = np.asarray(list(t_grid), dtype=float)
    if ts.ndim != 1 or len(ts) < 3:
        raise ValueError("need at least three path times")
    return list(np.diff(_path_energies(spec, w, lam, path, ts), 2))


def geodesic_equation_residual(path, t: float, rho_grid):
    """max |phi-double-dot - |dbar phi-dot|^2| over the rho grid, by central
    differences of the Legendre-transformed Kahler potentials with steps
    1e-3 in t and 1e-4 in rho."""
    ht, hr = 1e-3, 1e-4

    def kahler_potential(s, rho):
        pot = path.at(s)
        tau = invert_uprime(pot, rho)
        return rho * tau - pot.value(tau)

    rho_grid = np.asarray(rho_grid, dtype=float)
    worst = 0.0
    pot_t = path.at(t)
    for rho in rho_grid:
        u_mm = kahler_potential(t - ht, np.array([rho]))[0]
        u_0 = kahler_potential(t, np.array([rho]))[0]
        u_pp = kahler_potential(t + ht, np.array([rho]))[0]
        phi_ddot = (u_pp - 2.0 * u_0 + u_mm) / ht ** 2

        def phi_dot(rr):
            a = kahler_potential(t + ht, np.array([rr]))[0]
            b = kahler_potential(t - ht, np.array([rr]))[0]
            return (a - b) / (2.0 * ht)

        drho = (phi_dot(rho + hr) - phi_dot(rho - hr)) / (2.0 * hr)
        tau_star = invert_uprime(pot_t, np.array([rho]))[0]
        # |dbar phi-dot|^2 = (d_rho phi-dot)^2 / u''(rho) and u''(rho) = 1/U''(tau)
        grad_sq = drho ** 2 * float(pot_t.d2(tau_star))
        worst = max(worst, abs(phi_ddot - grad_sq))
    return worst
