"""The weighted volume functional, its variations, and derived invariants.

Everything is computed by momentum-coordinate quadrature against the
surface's pushforward measure, with the weight e^{theta}, theta = -chi tau
(plus an optional additive normalization shift).  Quantities that are class
invariants (sbar, the obstruction functional, the log-volume) are computed
from one explicit admissible reference profile; independence from that
choice is a tested property, not an assumption.

A FunctionalContext holds one node table: the reference profile's psi-jet
and phi on the nodes of the measure's rule, evaluated once, and the
unweighted statistics s_mean, tau_mean, cov(s, tau) and var(tau).  Every
functional is a weighted average of arrays on those nodes, and the critical
points at every lam are read off one cached curve F0 + lam F1.  The extremal-
weight functional C(chi) = 1/4 avg0[(s - s_mean + chi (tau - tau_mean))^2 -
(s - s_mean)^2] = chi cov / 2 + chi^2 var / 4 is quadratic in chi, so C, its
minimizer -cov / var and the classical Futaki invariant -chi cov are closed
forms in those statistics.

Conventions:
* the directional derivative of log Vol^lam along a direction with weight
  chi_dir is the obstruction functional evaluated on that direction;
* mu_vol is the sign-flipped, (n! e^n)^lam-normalized variant whose critical
  points coincide with those of Vol^lam;
* all exponentially weighted averages are shift-safe (max-subtraction), so
  properness scans up to t = 200 stay finite.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np
from scipy.optimize import brentq

from .dh import TorusWeight, barycenter, integrate_weighted, log_mass, variance, weighted_average
from .errors import MucsckError
from .solver import mu_curvatures, mu_scalar_curvature, psi_jet
from .surfaces import SurfaceSpec

PROPERNESS_T_MAX = 200.0

# critical points are sought on |chi| in [1e-3, 30], 40 per decade, both
# signs, plus the origin; properness keeps every root of the surfaces in
# scope inside this window
_SCAN_MAGS = np.logspace(-3.0, math.log10(30.0), 180)
SCAN_GRID = np.concatenate([-_SCAN_MAGS[::-1], [0.0], _SCAN_MAGS])


@dataclass(frozen=True)
class FunctionalContext:
    """A surface plus one admissible metric profile and a moment-map shift."""

    spec: SurfaceSpec
    reference_profile: object = None
    shift: float = 0.0

    def __post_init__(self):
        if self.reference_profile is None:
            object.__setattr__(self, "reference_profile", self.spec.reference_profile())

    @property
    def measure(self):
        return self.spec.measure

    @cached_property
    def jet(self):
        """(psi, psi', psi'') of the reference profile on the rule's nodes."""
        return psi_jet(self.spec, self.reference_profile, self.measure.rule[0])

    @cached_property
    def phi(self):
        """The reference profile on the rule's nodes."""
        return np.asarray(self.reference_profile.value(self.measure.rule[0]), dtype=float)

    def curvatures(self, chi: float, lam: float):
        """(s^lam, s + box theta) of the reference metric on the rule's nodes."""
        return mu_curvatures(self.spec, chi, lam, self.measure.rule[0], self.jet)

    @cached_property
    def stats0(self):
        """Unweighted (s_mean, tau_mean, cov(s, tau), var(tau)) of the reference metric."""
        t, s = self.measure.rule[0], self.curvatures(0.0, 0.0)[0]
        avg0 = partial(weighted_average, self.measure, w=TorusWeight(0.0))
        s_mean, tau_mean = avg0(s), avg0(t)
        return s_mean, tau_mean, avg0((s - s_mean) * (t - tau_mean)), avg0((t - tau_mean) ** 2)

    @cached_property
    def obstruction_curve(self):
        """(F0, F1) on SCAN_GRID: F0 + lam F1 is d_mu_vol in the unit direction.

        The weighted curvature is quadratic in chi with tau-dependent
        coefficients, s^0 = A + chi B + chi^2 C, and its Bakry-Emery part is
        A + chi B0; all are read off the curvature at chi = 0 and chi = +-1,
        so each chi only contributes its exponential weight.  s^lam adds
        lam chi tau, so the obstruction is affine in lam with slope
        F1 = -chi var_chi(tau).
        """
        chis = SCAN_GRID
        meas = self.measure
        t, wts, dens = meas.rule
        _, A = self.curvatures(0.0, 0.0)
        s_plus, box_plus = self.curvatures(1.0, 0.0)
        s_minus, _ = self.curvatures(-1.0, 0.0)
        B = 0.5 * (s_plus - s_minus)
        C = 0.5 * (s_plus + s_minus) - A
        B0 = box_plus - A
        shift = np.maximum(-chis * meas.tau_min, -chis * meas.tau_max)
        wmat = np.exp(-chis[:, None] * t[None, :] - shift[:, None]) * (dens * wts)[None, :]
        mass = wmat.sum(axis=1)

        def avg(f_vals):
            return (wmat @ f_vals) / mass

        # -(avg(s^0 tau) - sbar^0 avg(tau)), the Futaki invariant at lam = 0
        avg_t = avg(t)
        s_tau = avg(A * t) + chis * avg(B * t) + chis ** 2 * avg(C * t)
        f0 = -(s_tau - (avg(A) + chis * avg(B0)) * avg_t)
        var = np.einsum("ij,ij->i", wmat, (t[None, :] - avg_t[:, None]) ** 2) / mass
        return f0, -chis * var

    def with_profile(self, profile) -> "FunctionalContext":
        return FunctionalContext(self.spec, profile, self.shift)

    def with_shift(self, shift: float) -> "FunctionalContext":
        return FunctionalContext(self.spec, self.reference_profile, shift)


@dataclass(frozen=True)
class VolReport:
    log_vol: float
    sbar: float
    theta_bar: float
    futaki_self: float
    nu_self: float
    lambda_xi: float | None

    def to_dict(self):
        return asdict(self)


# -- pointwise ingredients -------------------------------------------------


def scalar_curvature(ctx: FunctionalContext, tau):
    """Unweighted scalar curvature of the reference metric at tau."""
    return mu_scalar_curvature(ctx.spec, ctx.reference_profile, TorusWeight(0.0), 0.0, tau)


def theta_bar(ctx: FunctionalContext, w: TorusWeight) -> float:
    """Weighted mean of the Hamiltonian potential -chi tau + shift."""
    return -w.chi * barycenter(ctx.measure, w) + ctx.shift


# -- the volume functional ---------------------------------------------------


def sbar(ctx: FunctionalContext, w: TorusWeight, lam: float) -> float:
    """Weighted average of (s + box theta - lam theta); a class constant."""
    return weighted_average(ctx.measure, ctx.curvatures(w.chi, lam)[1], w) - lam * theta_bar(ctx, w)


def log_mass_shifted(ctx: FunctionalContext, w: TorusWeight) -> float:
    return log_mass(ctx.measure, w) + ctx.shift


def log_vol(ctx: FunctionalContext, w: TorusWeight, lam: float) -> float:
    return sbar(ctx, w, lam) + lam * log_mass_shifted(ctx, w)


def mu_vol(ctx: FunctionalContext, w: TorusWeight, lam: float) -> float:
    """-log(Vol^lam / (n! e^n)^lam); critical points mirror those of Vol^lam."""
    n = ctx.spec.complex_dim
    return -log_vol(ctx, w, lam) + lam * (math.log(math.factorial(n)) + n)


# -- variations ----------------------------------------------------------------


def _shat(ctx: FunctionalContext, w: TorusWeight, lam: float):
    """Centered weighted curvature on the nodes (weighted mean zero).

    The shift cancels identically between s^lam and its average, so the
    centered values can be built from the raw (-chi tau) convention.
    """
    return ctx.curvatures(w.chi, lam)[0] - (sbar(ctx, w, lam) + lam * ctx.shift)


def futaki(ctx: FunctionalContext, w_base: TorusWeight, w_dir: TorusWeight, lam: float) -> float:
    """Obstruction functional: weighted average of shat * theta_dir."""
    theta_dir = -w_dir.chi * ctx.measure.rule[0]
    return weighted_average(ctx.measure, _shat(ctx, w_base, lam) * theta_dir, w_base)


def nu(ctx: FunctionalContext, w_base: TorusWeight, w_dir: TorusWeight) -> float:
    """Weighted variance of theta_dir; positive for every nonzero direction."""
    return w_dir.chi ** 2 * variance(ctx.measure, w_base)


def d_mu_vol(ctx: FunctionalContext, w: TorusWeight, lam: float, w_dir: TorusWeight) -> float:
    """Directional derivative of log Vol^lam (the obstruction functional)."""
    return futaki(ctx, w, w_dir, lam)


def d2_mu_vol(ctx: FunctionalContext, w: TorusWeight, lam: float, w_dir: TorusWeight) -> float:
    """Second directional derivative of log Vol^lam along w_dir.

    Specialized to a rank-1 torus: the Hessian entry is

        avg(shat theta^2) + 2 avg(|dir|^2_g) - lam nu - 2 F(dir) avg(theta),

    with |dir|^2_g = chi_dir^2 phi in momentum coordinates.
    """
    chi_d = w_dir.chi
    th = -chi_d * ctx.measure.rule[0]
    term_shat = weighted_average(ctx.measure, _shat(ctx, w, lam) * th ** 2, w)
    term_vec = 2.0 * chi_d ** 2 * weighted_average(ctx.measure, ctx.phi, w)
    term_nu = lam * nu(ctx, w, w_dir)
    term_cross = 2.0 * futaki(ctx, w, w_dir, lam) * weighted_average(ctx.measure, th, w)
    return term_shat + term_vec - term_nu - term_cross


def lambda_xi(ctx: FunctionalContext, w: TorusWeight) -> float:
    """The unique lam with vanishing self-obstruction at this weight."""
    if w.chi == 0.0:
        raise MucsckError("lambda_xi is undefined at the origin; use lambda_hat")
    return futaki(ctx, w, w, 0.0) / nu(ctx, w, w)


# -- unweighted (chi = 0) statistics: closed forms in FunctionalContext.stats0 --------


def classical_futaki(ctx: FunctionalContext, w_dir: TorusWeight) -> float:
    """int (s - s_mean) theta_dir d mu_0 / mass = -chi_dir cov(s, tau); vanishes on the line."""
    return -w_dir.chi * ctx.stats0[2]


def C_functional(ctx: FunctionalContext, w: TorusWeight) -> float:
    """Strictly convex functional whose unique minimizer is the extremal weight.

    C = chi cov / 2 + chi^2 var / 4 (see the module docstring), normalized so
    that the kappa -> 0 limit of the rescaled volume profile W-check equals
    exactly -2 C.
    """
    _, _, cov, var = ctx.stats0
    return 0.5 * w.chi * cov + 0.25 * w.chi ** 2 * var


def extremal_chi(ctx: FunctionalContext) -> float:
    """Unique minimizer of C: the extremal weight -cov(s, tau) / var(tau)."""
    _, _, cov, var = ctx.stats0
    return -cov / var


def weight_norm(ctx: FunctionalContext, w: TorusWeight) -> float:
    """|xi| with |xi|^2 = int theta-hat^2 d(unweighted measure), theta-hat
    centered to zero unweighted mean."""
    mass0 = integrate_weighted(ctx.measure, 1.0, TorusWeight(0.0))
    return abs(w.chi) * math.sqrt(ctx.stats0[3] * mass0)


def lambda_hat(ctx: FunctionalContext, ray_sign: int, r: float) -> float:
    """|xi| * lambda_xi along a unit ray, continuously extended to r = 0."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    sign = 1.0 if ray_sign >= 0 else -1.0
    chi_unit = sign / weight_norm(ctx, TorusWeight(1.0))  # |xi(chi_unit)| = 1
    if r == 0.0:
        # lim |xi| lambda_xi = classical Futaki of the unit direction over the
        # unweighted variance of its potential, -cov / (chi_unit var)
        return extremal_chi(ctx) / chi_unit
    w = TorusWeight(r * chi_unit)
    return weight_norm(ctx, w) * lambda_xi(ctx, w)


# -- critical points ---------------------------------------------------------------


def critical_brackets(ctx: FunctionalContext, lam: float):
    """Where SCAN_GRID meets the critical points of log Vol^lam.

    Returns the indices at which F0 + lam F1 vanishes (to 1e-11 of its
    largest value) and the left ends i of the intervals [i, i + 1] on which
    it changes sign between two nonzero values.
    """
    f0, f1 = ctx.obstruction_curve
    vals = f0 + lam * f1
    zero = np.abs(vals) <= 1e-11 * max(1.0, float(np.max(np.abs(vals))))
    change = (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0) & ~zero[:-1] & ~zero[1:]
    return np.flatnonzero(zero), np.flatnonzero(change)


def find_critical(ctx: FunctionalContext, lam: float):
    """All roots of the log-volume chi-derivative in SCAN_GRID's window.

    The grid's zeros of the cached obstruction curve are roots; each of its
    sign changes is refined by brentq on the scalar d_mu_vol.
    """
    unit = TorusWeight(1.0)
    f = lambda chi: d_mu_vol(ctx, TorusWeight(chi), lam, unit)  # noqa: E731
    zeros, changes = critical_brackets(ctx, lam)
    roots = [float(SCAN_GRID[i]) for i in zeros]
    roots += [float(brentq(f, SCAN_GRID[i], SCAN_GRID[i + 1], xtol=1e-12)) for i in changes]
    if not roots:
        # properness guarantees a minimizer; take the grid point where
        # log Vol is least
        roots.append(float(min(SCAN_GRID, key=lambda c: log_vol(ctx, TorusWeight(c), lam))))
    roots = sorted(roots)
    out = []
    for rt in roots:
        if not out or abs(rt - out[-1]) > 1e-8 * max(1.0, abs(rt)):
            out.append(rt)
    return out


# -- properness and the blown-up profile ---------------------------------------------


def properness_slope(ctx: FunctionalContext, w_dir: TorusWeight, lam: float, t_list):
    """Samples of t^{-1} log Vol^lam(t xi) for t in t_list (t <= 200 guarded)."""
    t_arr = list(t_list)
    if any(t2 <= t1 for t1, t2 in zip(t_arr, t_arr[1:])):
        raise ValueError("t_list must be strictly increasing")
    if t_arr and t_arr[-1] > PROPERNESS_T_MAX:
        raise ValueError(f"properness scan capped at t = {PROPERNESS_T_MAX}")
    return [log_vol(ctx, w_dir.scaled(t), lam) / t for t in t_arr]


def W_check(ctx: FunctionalContext, eta: TorusWeight, kappa: float) -> float:
    """kappa^{-1} W(kappa eta, kappa^{-1}), continuously extended to kappa = 0.

    W(xi, lam) = log(Vol^lam(xi) / mass0^lam) - s_mean; the kappa = 0 limit
    is -2 C(eta).
    """
    if kappa == 0.0:
        return -2.0 * C_functional(ctx, eta)
    s_mean = ctx.stats0[0]
    w = eta.scaled(kappa)
    s0 = sbar(ctx, w, 0.0)
    tb = theta_bar(ctx, w)
    lm = log_mass_shifted(ctx, w)
    lm0 = log_mass_shifted(ctx, TorusWeight(0.0))
    return (s0 - s_mean) / kappa - (tb - (lm - lm0)) / kappa ** 2


def lambda_inf(ctx: FunctionalContext) -> float:
    """Threshold below which the origin is a local volume minimizer.

    The minimized ratio over the rank-1 torus; requires the classical
    obstruction to vanish (true on the line), in which case the value is
    normalization-independent.
    """
    s_mean, _, _, var = ctx.stats0
    t, s = ctx.measure.rule[0], ctx.curvatures(0.0, 0.0)[0]
    avg0 = partial(weighted_average, ctx.measure, w=TorusWeight(0.0))
    return (avg0((s - s_mean) * t ** 2) + 2.0 * avg0(ctx.phi)) / var


def vol_report(ctx: FunctionalContext, w: TorusWeight, lam: float) -> VolReport:
    lam_xi = lambda_xi(ctx, w) if w.chi != 0.0 else None
    return VolReport(
        log_vol=log_vol(ctx, w, lam),
        sbar=sbar(ctx, w, lam),
        theta_bar=theta_bar(ctx, w),
        futaki_self=futaki(ctx, w, w, lam),
        nu_self=nu(ctx, w, w),
        lambda_xi=lam_xi,
    )
