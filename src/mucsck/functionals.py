"""The weighted volume functional, its variations, and derived invariants.

Everything is computed by momentum-coordinate quadrature against the
surface's pushforward measure, with the weight e^{theta}, theta = -chi tau
(plus an optional additive normalization shift).  Quantities that are class
invariants (sbar, the obstruction functional, the log-volume) are computed
from one explicit admissible reference profile; independence from that
choice is a tested property, not an assumption.

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
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .dh import (
    TorusWeight,
    _panel_nodes,
    barycenter,
    integrate_weighted,
    log_mass,
    variance,
    weighted_average,
)
from .errors import MucsckError
from .solver import mu_curvatures, mu_scalar_curvature, psi_jet
from .surfaces import SurfaceSpec

CRITICAL_SCAN_ABS = (1e-3, 30.0)
CRITICAL_PER_DECADE = 40
PROPERNESS_T_MAX = 200.0


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
        return {
            "log_vol": self.log_vol,
            "sbar": self.sbar,
            "theta_bar": self.theta_bar,
            "futaki_self": self.futaki_self,
            "nu_self": self.nu_self,
            "lambda_xi": self.lambda_xi,
        }


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
    spec, prof = ctx.spec, ctx.reference_profile
    base = weighted_average(
        ctx.measure, lambda t: mu_curvatures(spec, w.chi, lam, t, psi_jet(spec, prof, t))[1], w)
    return base - lam * theta_bar(ctx, w)


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
    """Centered weighted curvature as a function of tau (weighted mean zero).

    The shift cancels identically between s^lam and its average, so the
    centered function can be built from the raw (-chi tau) convention.
    """
    raw_bar = sbar(ctx, w, lam) + lam * ctx.shift

    def centered(t):
        return mu_scalar_curvature(ctx.spec, ctx.reference_profile, w, lam, t) - raw_bar

    return centered


def futaki(ctx: FunctionalContext, w_base: TorusWeight, w_dir: TorusWeight, lam: float) -> float:
    """Obstruction functional: weighted average of shat * theta_dir."""
    shat = _shat(ctx, w_base, lam)
    return weighted_average(
        ctx.measure, lambda t: shat(t) * (-w_dir.chi * t), w_base
    )


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
    shat = _shat(ctx, w, lam)
    chi_d = w_dir.chi
    prof = ctx.reference_profile
    th = lambda t: -chi_d * t  # noqa: E731
    term_shat = weighted_average(ctx.measure, lambda t: shat(t) * th(t) ** 2, w)
    term_vec = 2.0 * chi_d ** 2 * weighted_average(ctx.measure, lambda t: prof.value(t), w)
    term_nu = lam * nu(ctx, w, w_dir)
    fut = futaki(ctx, w, w_dir, lam)
    term_cross = 2.0 * fut * weighted_average(ctx.measure, lambda t: th(t), w)
    return term_shat + term_vec - term_nu - term_cross


def lambda_xi(ctx: FunctionalContext, w: TorusWeight) -> float:
    """The unique lam with vanishing self-obstruction at this weight."""
    if w.chi == 0.0:
        raise MucsckError("lambda_xi is undefined at the origin; use lambda_hat")
    return futaki(ctx, w, w, 0.0) / nu(ctx, w, w)


# -- unweighted (chi = 0) statistics --------------------------------------------


def _avg0(ctx: FunctionalContext, f) -> float:
    return weighted_average(ctx.measure, f, TorusWeight(0.0))


def _unweighted_stats(ctx: FunctionalContext):
    s = lambda t: scalar_curvature(ctx, t)  # noqa: E731
    s_mean = _avg0(ctx, s)
    tau_mean = _avg0(ctx, lambda t: t)
    cov = _avg0(ctx, lambda t: (s(t) - s_mean) * (t - tau_mean))
    var = _avg0(ctx, lambda t: (t - tau_mean) ** 2)
    return s_mean, tau_mean, cov, var


def classical_futaki(ctx: FunctionalContext, w_dir: TorusWeight) -> float:
    """int (s - s_mean) theta_dir d mu_0 / mass; vanishes on the line."""
    s_mean, _, _, _ = _unweighted_stats(ctx)
    return _avg0(ctx, lambda t: (scalar_curvature(ctx, t) - s_mean) * (-w_dir.chi * t))


def C_functional(ctx: FunctionalContext, w: TorusWeight) -> float:
    """Strictly convex functional whose unique minimizer is the extremal weight.

    Normalized so that the kappa -> 0 limit of the rescaled volume profile
    W-check equals exactly -2 C.
    """
    s = lambda t: scalar_curvature(ctx, t)  # noqa: E731
    s_mean = _avg0(ctx, s)
    tau_mean = _avg0(ctx, lambda t: t)
    sq = _avg0(ctx, lambda t: ((s(t) - s_mean) + w.chi * (t - tau_mean)) ** 2)
    sq0 = _avg0(ctx, lambda t: (s(t) - s_mean) ** 2)
    return 0.25 * (sq - sq0)


def extremal_chi(ctx: FunctionalContext, newton_tol: float = 1e-13, max_iter: int = 100) -> float:
    """Unique minimizer of C, by guarded Newton with bisection fallback."""
    _, _, cov, var = _unweighted_stats(ctx)

    def dC(chi):
        return 0.5 * (cov + chi * var)

    def d2C(chi):
        return 0.5 * var

    chi = 0.0
    for _ in range(max_iter):
        g, h = dC(chi), d2C(chi)
        if h <= 0.0:
            break
        step = -g / h
        chi_new = chi + step
        if abs(step) <= newton_tol * max(1.0, abs(chi_new)):
            return chi_new
        chi = chi_new
    # bisection fallback on dC
    lo, hi = -1e3, 1e3
    return brentq(dC, lo, hi, xtol=1e-13)


def weight_norm(ctx: FunctionalContext, w: TorusWeight) -> float:
    """|xi| with |xi|^2 = int theta-hat^2 d(unweighted measure), theta-hat
    centered to zero unweighted mean."""
    _, _, _, var = _unweighted_stats(ctx)
    mass0 = integrate_weighted(ctx.measure, lambda t: np.ones_like(t), TorusWeight(0.0))
    return abs(w.chi) * math.sqrt(var * mass0)


def lambda_hat(ctx: FunctionalContext, ray_sign: int, r: float) -> float:
    """|xi| * lambda_xi along a unit ray, continuously extended to r = 0."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    sign = 1.0 if ray_sign >= 0 else -1.0
    _, _, _, var = _unweighted_stats(ctx)
    chi_unit = sign / weight_norm(ctx, TorusWeight(1.0))  # |xi(chi_unit)| = 1
    if r == 0.0:
        # lim |xi| lambda_xi = classical Futaki of the unit direction over
        # the unweighted variance of its potential
        fut = classical_futaki(ctx, TorusWeight(chi_unit))
        return fut / (chi_unit ** 2 * var)
    w = TorusWeight(r * chi_unit)
    return weight_norm(ctx, w) * lambda_xi(ctx, w)


# -- critical points ---------------------------------------------------------------


def _scan_grid(chi_range):
    lo_abs, hi_abs = CRITICAL_SCAN_ABS
    hi_abs = min(hi_abs, max(abs(chi_range[0]), abs(chi_range[1])))
    n = max(2, int(round(CRITICAL_PER_DECADE * math.log10(hi_abs / lo_abs))) + 1)
    mags = np.logspace(math.log10(lo_abs), math.log10(hi_abs), n)
    grid = np.concatenate([-mags[::-1], [0.0], mags])
    return grid[(grid >= chi_range[0]) & (grid <= chi_range[1])]


def _dmuvol_on_grid(ctx: FunctionalContext, lam: float, chis):
    """Vectorized d_mu_vol over a chi grid with unit direction.

    The weighted curvature is quadratic in chi with tau-dependent
    coefficients, s^lam = A + chi B + chi^2 C, and its Bakry-Emery part is
    A + chi B0; all are read off the curvature at chi = 0 and chi = +-1, so
    the profile is evaluated once for the whole grid and each chi only
    contributes its exponential weight.  Deterministic, on the dh rule.
    """
    spec, meas = ctx.spec, ctx.measure
    t, wts = _panel_nodes(meas)
    pw = meas.density(t) * wts
    jet = psi_jet(spec, ctx.reference_profile, t)
    _, A = mu_curvatures(spec, 0.0, lam, t, jet)
    s_plus, box_plus = mu_curvatures(spec, 1.0, lam, t, jet)
    s_minus, _ = mu_curvatures(spec, -1.0, lam, t, jet)
    B = 0.5 * (s_plus - s_minus)
    C = 0.5 * (s_plus + s_minus) - A
    B0 = box_plus - A
    chis = np.asarray(chis, dtype=float)
    shift = np.maximum(-chis * meas.tau_min, -chis * meas.tau_max)
    wmat = np.exp(-chis[:, None] * t[None, :] - shift[:, None]) * pw[None, :]
    mass = wmat.sum(axis=1)

    def avg(f_vals):
        return (wmat @ f_vals) / mass

    # Futaki in the unit direction: -(avg(s^lam tau) - sbar^lam avg(tau)).
    avg_t = avg(t)
    sbar_lam = avg(A) + chis * avg(B0) + lam * chis * avg_t
    s_tau = avg(A * t) + chis * avg(B * t) + chis ** 2 * avg(C * t)
    return -(s_tau - sbar_lam * avg_t)


def find_critical(ctx: FunctionalContext, lam: float, chi_range=(-30.0, 30.0)):
    """All roots of the log-volume chi-derivative in the window.

    Log-spaced scan (both signs, 40 per decade) plus the origin; properness
    keeps every root inside a window of this size for the surfaces in scope.
    """
    grid = _scan_grid(chi_range)
    unit = TorusWeight(1.0)
    f = lambda chi: d_mu_vol(ctx, TorusWeight(chi), lam, unit)  # noqa: E731
    vals = _dmuvol_on_grid(ctx, lam, grid)
    roots = []
    zero_floor = 1e-11 * max(1.0, float(np.max(np.abs(vals))))
    for i, v in enumerate(vals):
        if abs(v) <= zero_floor:
            roots.append(float(grid[i]))
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if abs(a) <= zero_floor or abs(b) <= zero_floor:
            continue
        if np.sign(a) * np.sign(b) < 0:
            roots.append(float(brentq(f, grid[i], grid[i + 1], xtol=1e-12)))
    if not roots:
        # properness guarantees a minimizer; locate it by golden-section on
        # the coarse grid around the argmin of log Vol
        lv = [log_vol(ctx, TorusWeight(c), lam) for c in grid]
        roots.append(float(grid[int(np.argmin(lv))]))
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
    s_mean, _, _, _ = _unweighted_stats(ctx)
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
    s = lambda t: scalar_curvature(ctx, t)  # noqa: E731
    s_mean, tau_mean, _, var = _unweighted_stats(ctx)
    num = _avg0(ctx, lambda t: (s(t) - s_mean) * t ** 2) + 2.0 * _avg0(
        ctx, lambda t: ctx.reference_profile.value(t)
    )
    return num / var


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
