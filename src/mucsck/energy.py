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

On the path route the path supplies its jets on the tau nodes (`jets`):
U_t is affine in t along a geodesic, so the endpoints' (U'', U''', U'''')
and the velocity are evaluated once, and each t-node only combines those
arrays and checks U_t'' > 0.  The endpoint-entropy route stays independent
of this: it composes the moment maps of each U_t by Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev
from scipy.optimize import brentq

from .dh import TorusWeight, _panel_nodes, _peak_end
from .errors import DomainError, EvaluationError, PathDegeneracyError
from .solver import mu_curvatures
from .surfaces import CP1, SurfaceSpec

T_GAUSS_NODES = 32
TAU_PANELS = 64
DEFAULT_DEG = 96

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
        """Legendre-side potential of a positive, boundary-compatible profile."""
        m = float(m)
        width = 2.0 * m

        def h(t):
            t = np.asarray(t, dtype=float)
            phi = np.asarray(profile.value(t), dtype=float)
            if np.any(phi[(t > 0) & (t < width)] <= 0.0):
                raise DomainError("profile must be positive on the open interval")
            return 1.0 / phi - 0.5 * (1.0 / t + 1.0 / (width - t))

        # interpolation nodes stay interior, so the cancelled singularity is
        # never evaluated at the endpoints
        smooth2 = Chebyshev.interpolate(h, DEFAULT_DEG, domain=[0.0, width])
        return cls(m, smooth2.integ(2, lbnd=m))

    def _parts(self, t, order):
        t = np.asarray(t, dtype=float)
        w = 2.0 * self.m
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
        return np.array([self.d2(t), self.d3(t), self.d4(t)])

    def plus_smooth(self, extra: Chebyshev) -> "SymplecticPotential":
        return SymplecticPotential(self.m, self.smooth + extra)

    def smooth_max_dslope(self) -> float:
        ts = np.linspace(0.0, 2.0 * self.m, 257)
        return float(np.max(np.abs(self._smooth_derivs[0](ts))))


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

    return _t_integrals(rate, t_grid)


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


def invert_uprime(pot: SymplecticPotential, targets):
    """Solve U'(tau) = target for tau, vectorized.

    Parametrize tau = 2m sigmoid(y); then U'(tau(y)) = y/2 + smooth'(tau(y))
    is strictly increasing in y, Newton converges from y = 2 target, and the
    iterate stays inside the open interval by construction.
    """
    targets = np.asarray(targets, dtype=float)
    width = 2.0 * pot.m
    sp1, sp2 = pot._smooth_derivs[:2]

    def tau_of(y):
        return width / (1.0 + np.exp(-y))

    y = 2.0 * targets
    ok = np.zeros(targets.shape, dtype=bool)
    for _ in range(60):
        tau = tau_of(y)
        F = 0.5 * y + sp1(tau) - targets
        ok = np.abs(F) <= 1e-13 * np.maximum(1.0, np.abs(targets))
        if np.all(ok):
            break
        dtau_dy = tau * (1.0 - tau / width)
        dF = 0.5 + sp2(tau) * dtau_dy
        step = np.where(ok, 0.0, F / np.maximum(dF, 1e-3))
        y = y - np.clip(step, -5.0, 5.0)
    if not np.all(ok):
        M = pot.smooth_max_dslope() + 1.0
        for i in np.nonzero(~ok)[0]:
            g = lambda yy: 0.5 * yy + float(sp1(tau_of(yy))) - targets[i]  # noqa: E731
            y[i] = brentq(g, 2.0 * (targets[i] - M), 2.0 * (targets[i] + M), xtol=1e-14)
    return tau_of(y)


def compose_moment_maps(u_from: SymplecticPotential, u_to: SymplecticPotential, taus):
    """tau_to(tau_from): the to-side momentum of the point with from-side
    momentum tau, i.e. (U_to')^{-1} (U_from')."""
    return invert_uprime(u_to, u_from.d1(taus))


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
    only reference-metric data composed through the moment maps.
    """
    chi = w.chi
    nodes, q = _weight_data(spec, w)

    _, box0 = mu_curvatures(spec, chi, lam, nodes, _phi_jet(u0.jet(nodes)))
    sbar0 = q @ box0
    theta_bar = -chi * (q @ nodes)

    path = GeodesicPath(u0, u1)
    entropy = relative_entropy(spec, w, u0, u1)

    def rate(t):
        pot = path.at(t)
        vel = path.velocity(t)
        # two-form piece: base-momentum integral against the weight of g_t;
        # the line's density is 1, so that weight is q e^{-chi (tau_t - tau)}
        tau_t = compose_moment_maps(u0, pot, nodes)
        two_form = q @ (-vel(tau_t) * np.exp(-chi * (tau_t - nodes)) * box0)
        # zero-form piece and the sbar/lam terms: g_t-momentum integrals
        f0, f0p, _ = _phi_jet(u0.jet(compose_moment_maps(pot, u0, nodes)))
        phidot = -vel(nodes)
        zero_form = q @ (phidot * (chi * f0p - chi ** 2 * f0))
        base_int = q @ phidot
        theta_int = q @ (-chi * nodes * phidot)
        return -(two_form + zero_form) + sbar0 * base_int + lam * (theta_int - theta_bar * base_int)

    return entropy + float(_t_integrals(rate, [1.0])[0])


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
