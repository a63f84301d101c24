"""The weighted volume functional, its variations, and derived invariants.

Everything is computed by momentum-coordinate quadrature against the
surface's pushforward measure, with the weight e^{theta}, theta = -chi tau
(plus an optional additive normalization shift).  Quantities that are class
invariants (sbar, the obstruction functional, the log-volume) are computed
from one explicit admissible reference profile; independence from that
choice is a tested property, not an assumption.

The weighted curvature is quadratic in chi with tau-dependent
coefficients, s^0 = A + chi B + chi^2 C, its Bakry-Emery part is
A + chi B0, and s^lam adds lam chi tau; the splits are read off the
curvature at chi = 0 and chi = +-1.  A FunctionalContext evaluates the
reference profile's psi-jet and these splits on the nodes of the measure's
rule once and builds, for each end of the interval as ref, one stack of
node columns when a chi first reads that end: the powers of u = tau - ref
up to u^3, A, B0, B, C, (A, B, C) times u and u^2, and phi.  The moment
kernel `dh._end_moments` returns their log-mass and weighted averages for
a whole array of chi at once, and every functional is a closed
expression in those moments: theta_bar, sbar, log_vol, mu_vol, futaki, nu,
lambda_xi, d2_mu_vol, stats0, lambda_inf, W_check, properness_slope, the
obstruction curve F0 + lam F1 on SCAN_GRID and mu_vol_profile on any chi
array.  The roots of F = F0 + lam F1 are both
the solver's and the critical points: `critical_brackets` reads one sorted
list of brackets off the curve, which `find_critical`, `path.trace` and the
phase layer share, and `obstruction_root` (also used by `solver.solve_chi`)
is the one brentq over F, so a critical point and a traced root in the
same bracket are the same float.  The columns are centred near the
weighted mean (u at the end where the weight peaks, `dh._peak_end`, and A,
B and C at their values there), which is the shifted one-pass
formula of Chan, Golub and LeVeque, so a covariance such as avg(s tau) -
avg(s) avg(tau) loses no leading digits.

The extremal-weight functional C(chi) = 1/4 avg0[(s - s_mean + chi (tau -
tau_mean))^2 - (s - s_mean)^2] = chi cov / 2 + chi^2 var / 4 is quadratic
in chi, so C, its minimizer -cov / var and the classical Futaki invariant
-chi cov are closed forms in the unweighted statistics stats0.

Conventions:
* the directional derivative of log Vol^lam along a direction with weight
  chi_dir is the obstruction functional evaluated on that direction;
* mu_vol is the sign-flipped, (n! e^n)^lam-normalized variant whose critical
  points coincide with those of Vol^lam;
* all exponentially weighted averages are shift-safe (both factors of the
  kernel's weight are at most 1), so properness scans up to t = 200 stay
  finite; a weight whose mass underflows raises EvaluationError.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from .dh import TorusWeight, _end_moments, _end_stacks, _peak_end
from .errors import BracketError, EvaluationError, MucsckError
from .solver import CHI_ZERO_THRESHOLD, mu_curvatures, mu_scalar_curvature, psi_jet
from .surfaces import SurfaceSpec

PROPERNESS_T_MAX = 200.0

# critical points are sought on |chi| in [1e-3, 30], 40 per decade, both
# signs, plus the origin; properness keeps every root of the surfaces in
# scope inside this window
_SCAN_MAGS = np.logspace(-3.0, math.log10(30.0), 180)
SCAN_GRID = np.concatenate([-_SCAN_MAGS[::-1], [0.0], _SCAN_MAGS])


# The kernel's moments at chi, centred at ref, the end where the weight
# peaks (`dh._peak_end`): with u = tau - ref and A, B, C
# minus their values at the node nearest ref (A's is a_end), log_mass is
# log(scale int p e^{-chi u}) and t1, t2, t3, a, b0, b, c, at, bt, ct, at2,
# bt2, ct2, phi are the weighted averages of u, u^2, u^3, A, B0, B, C, A u,
# B u, C u, A u^2, B u^2, C u^2 and phi.
_Moments = namedtuple("_Moments", "chi ref a_end shift log_mass t1 t2 t3 a b0 b c at bt ct "
                                  "at2 bt2 ct2 phi")


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
    def _splits(self):
        """(A, B0, B, C, phi) on the rule's nodes: the end-independent part of
        the stacks, from the curvature at chi = 0 and chi = +-1."""
        t = self.measure.rule[0]
        with np.errstate(all="ignore"):  # _end_stacks refuses a non-finite column
            _, A = mu_curvatures(self.spec, 0.0, 0.0, t, self.jet)
            s_plus, box_plus = mu_curvatures(self.spec, 1.0, 0.0, t, self.jet)
            s_minus, _ = mu_curvatures(self.spec, -1.0, 0.0, t, self.jet)
            B = 0.5 * (s_plus - s_minus)
            C = 0.5 * (s_plus + s_minus) - A
            B0 = box_plus - A
            phi = self.jet[0] / (1.0 - self.spec.k * t)
        return A, B0, B, C, phi

    def _columns(self, ref):
        """The module docstring's node columns centred at ref, for `dh._end_stacks`."""
        # shifted one-pass sums: tau, A, B and C each minus a value near
        # the weighted mean, so a covariance cancels no leading digits
        A, B0, B, C, phi = self._splits
        i = 0 if ref == self.measure.tau_min else -1
        u, a, b, c = self.measure.rule[0] - ref, A - A[i], B - B[i], C - C[i]
        u2 = u * u
        return u, u2, u2 * u, a, B0, b, c, a * u, b * u, c * u, a * u2, b * u2, c * u2, phi

    @cached_property
    def _min_end(self):
        """`dh._end_stacks` of `_columns` with the tau_min stack only."""
        return _end_stacks(self.measure, self._columns, (0,))

    @cached_property
    def _max_end(self):
        """`dh._end_stacks` of `_columns` with the tau_max stack only."""
        return _end_stacks(self.measure, self._columns, (1,))

    def _stacks(self, peak):
        """The stacks `_end_moments` reads for chis whose `dh._peak_end` is
        `peak`: each end's stack is built when a chi first reads it, so a
        one-signed solve builds one of the two."""
        negative = np.count_nonzero(peak)
        if negative == 0:
            return self._min_end
        if negative == len(peak):
            return self._max_end
        return self._min_end[0], (self._min_end[1][0], self._max_end[1][1])

    @cached_property
    def _end_values(self):
        """(ref, A at the node nearest ref) at each end, indexed by `dh._peak_end`."""
        A = self._splits[0]
        return np.array([self.measure.tau_min, self.measure.tau_max]), A[[0, -1]]

    def _moments(self, chis) -> _Moments:
        """The moments at chis, a float or a 1-D array; the fields take its shape."""
        c = np.atleast_1d(np.asarray(chis, dtype=float))
        # the functionals take chi ** 2 (s^0 = A + chi B + chi^2 C)
        ok = np.abs(c) <= math.sqrt(sys.float_info.max)
        if not ok.all():
            bad = float(c[~ok][0])
            if not math.isfinite(bad):
                raise ValueError(f"chi must be finite, got {bad}")
            raise EvaluationError(f"chi ** 2 leaves the float range at chi={bad!r}")
        peak = _peak_end(c)
        log_mass, avgs = _end_moments(self._stacks(peak), c)
        refs, a_ends = self._end_values
        if np.ndim(chis) == 0:
            end = peak[0]
            return _Moments(c[0], refs[end], a_ends[end], self.shift, log_mass[0], *avgs[0])
        return _Moments(c, refs[peak], a_ends[peak], self.shift, log_mass, *avgs.T)

    @cached_property
    def _origin(self) -> _Moments:
        return self._moments(0.0)

    @cached_property
    def stats0(self):
        """Unweighted (s_mean, tau_mean, cov(s, tau), var(tau)) of the reference metric."""
        m = self._origin
        return float(m.a_end + m.a), float(m.ref + m.t1), float(m.at - m.a * m.t1), float(_var(m))

    @cached_property
    def obstruction_curve(self):
        """(F0, F1) on SCAN_GRID: F0 + lam F1 is futaki in the unit direction."""
        return _obstruction(self._moments(SCAN_GRID))

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


# -- the functionals as expressions in the moments ------------------------------------
# Each takes a _Moments (of a float or an array of chi) and returns the same shape.


def _var(m):
    return m.t2 - m.t1 ** 2


def _s_box(m):
    """Weighted average of the Bakry-Emery curvature s + box theta."""
    return m.a_end + m.a + m.chi * m.b0


def _s0(m):
    """Weighted average of the centred s^0 = A + chi B + chi^2 C."""
    return m.a + m.chi * m.b + m.chi ** 2 * m.c


def _obstruction(m):
    """(F0, F1) with futaki = chi_dir (F0 + lam F1), the Futaki invariant
    -cov(s^lam, tau): F0 = -cov(s^0, tau), F1 = -chi var(tau)."""
    f0 = _s0(m) * m.t1 - (m.at + m.chi * m.bt + m.chi ** 2 * m.ct)
    return f0, -m.chi * _var(m)


def _lambda_xi(m):
    """F0 / (chi var(tau)); an underflowing divisor or quotient past the float
    range raises EvaluationError naming chi."""
    den = m.chi * _var(m)
    with np.errstate(all="ignore"):
        lam = _obstruction(m)[0] / den
    if not (abs(den) >= np.finfo(float).tiny and np.isfinite(lam)):
        raise EvaluationError(f"lambda_xi = F0 / (chi var(tau)) leaves the float range at "
                              f"chi={float(m.chi)!r} (chi var(tau) = {float(den)!r})")
    return float(lam)


def _theta_bar(m):
    return -m.chi * (m.ref + m.t1) + m.shift


def _sbar(m, lam):
    return _s_box(m) - lam * _theta_bar(m)


def _log_vol(m, lam):
    # sbar + lam (log mass + shift): the shift and ref cancel in closed form
    return _s_box(m) + lam * (m.chi * m.t1 + m.log_mass)


def _mu_vol(m, lam, n):
    return -_log_vol(m, lam) + lam * (math.log(math.factorial(n)) + n)


def _d_mu_vol_unit(ctx: FunctionalContext, chi: float, lam: float) -> float:
    """futaki at one chi in the unit direction: the scalar that brentq refines."""
    f0, f1 = _obstruction(ctx._moments(chi))
    return float(f0 + lam * f1)


# -- pointwise ingredients -------------------------------------------------


def scalar_curvature(ctx: FunctionalContext, tau):
    """Unweighted scalar curvature of the reference metric at tau."""
    return mu_scalar_curvature(ctx.spec, ctx.reference_profile, TorusWeight(0.0), 0.0, tau)


def theta_bar(ctx: FunctionalContext, w: TorusWeight) -> float:
    """Weighted mean of the Hamiltonian potential -chi tau + shift."""
    return float(_theta_bar(ctx._moments(w.chi)))


# -- the volume functional ---------------------------------------------------


def sbar(ctx: FunctionalContext, w: TorusWeight, lam: float) -> float:
    """Weighted average of (s + box theta - lam theta); a class constant."""
    return float(_sbar(ctx._moments(w.chi), lam))


def log_vol(ctx: FunctionalContext, w: TorusWeight, lam: float) -> float:
    return float(_log_vol(ctx._moments(w.chi), lam))


def mu_vol(ctx: FunctionalContext, w: TorusWeight, lam: float) -> float:
    """-log(Vol^lam / (n! e^n)^lam); critical points mirror those of Vol^lam."""
    return float(_mu_vol(ctx._moments(w.chi), lam, ctx.spec.complex_dim))


def mu_vol_profile(ctx: FunctionalContext, chis, lam: float):
    """(mu_vol, d_mu_vol in the unit direction) at every chi of an array, in one pass."""
    m = ctx._moments(np.asarray(chis, dtype=float).reshape(-1))
    f0, f1 = _obstruction(m)
    return _mu_vol(m, lam, ctx.spec.complex_dim), f0 + lam * f1


# -- variations ----------------------------------------------------------------


def futaki(ctx: FunctionalContext, w_base: TorusWeight, w_dir: TorusWeight, lam: float) -> float:
    """Obstruction functional: weighted average of shat * theta_dir, shat the
    weighted curvature s^lam centred to weighted mean zero; the directional
    derivative of log Vol^lam at w_base along w_dir."""
    return w_dir.chi * _d_mu_vol_unit(ctx, w_base.chi, lam)


def _along(w_dir: TorusWeight, unit) -> float:
    """chi_dir ** 2 times a second variation in the unit direction; past the
    float range raises EvaluationError naming chi_dir."""
    if abs(w_dir.chi) <= math.sqrt(sys.float_info.max):
        with np.errstate(over="ignore"):
            value = float(w_dir.chi ** 2 * unit)
        if math.isfinite(value):
            return value
    raise EvaluationError(f"chi_dir ** 2 times the unit-direction value leaves the float "
                          f"range at chi_dir={w_dir.chi!r}")


def nu(ctx: FunctionalContext, w_base: TorusWeight, w_dir: TorusWeight) -> float:
    """Weighted variance of theta_dir; positive for every nonzero direction."""
    return _along(w_dir, _var(ctx._moments(w_base.chi)))


def d2_mu_vol(ctx: FunctionalContext, w: TorusWeight, lam: float, w_dir: TorusWeight) -> float:
    """Second directional derivative of log Vol^lam along w_dir.

    Specialized to a rank-1 torus: the Hessian entry is

        avg(shat theta^2) + 2 avg(|dir|^2_g) - lam nu - 2 F(dir) avg(theta),

    with |dir|^2_g = chi_dir^2 phi in momentum coordinates.  shat = s^lam -
    avg(s^lam) has weighted mean zero, so the unit-direction entry is
    avg(shat (u - avg u)^2) + 2 avg(phi) - lam var for u = tau - ref.
    """
    m = ctx._moments(w.chi)
    f0, f1 = _obstruction(m)
    shat_u = -(f0 + lam * f1)
    shat_u2 = (m.at2 + m.chi * m.bt2 + m.chi ** 2 * m.ct2 - _s0(m) * m.t2
               + lam * m.chi * (m.t3 - m.t1 * m.t2))
    d2 = shat_u2 - 2.0 * shat_u * m.t1 + 2.0 * m.phi - lam * _var(m)
    return _along(w_dir, d2)


def lambda_xi(ctx: FunctionalContext, w: TorusWeight) -> float:
    """The unique lam with vanishing self-obstruction at this weight."""
    if w.chi == 0.0:
        raise MucsckError("lambda_xi is undefined at the origin; use lambda_hat")
    return _lambda_xi(ctx._moments(w.chi))


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
    mass0 = math.exp(ctx._origin.log_mass)
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
    """Where SCAN_GRID meets the critical points of log Vol^lam, as one sorted
    list of (lo, hi) pairs.

    A grid point g at which F = F0 + lam F1 vanishes (to 1e-11 of |F0| +
    |lam F1|, the size of the terms it cancels) is (g, g); two neighbours
    between which F changes sign, both nonzero, are (g_i, g_i+1).
    """
    f0, f1 = ctx.obstruction_curve
    vals = f0 + lam * f1
    zero = np.abs(vals) <= 1e-11 * (np.abs(f0) + np.abs(lam * f1))
    # change[i]: F changes sign on [g_i, g_i+1]; never at a zero's index
    change = np.append((np.sign(vals[:-1]) * np.sign(vals[1:]) < 0) & ~zero[:-1] & ~zero[1:],
                       False)
    lo = np.flatnonzero(zero | change)
    return list(zip(SCAN_GRID[lo].tolist(), SCAN_GRID[lo + change[lo]].tolist()))


def obstruction_root(ctx: FunctionalContext, lam: float, bracket) -> float:
    """The root of F = F0 + lam F1 in the bracket, to the resolution of chi.

    F is futaki in the unit direction, chi var(tau) (lambda_xi - lam): its
    nonzero roots are the solver's (see `solver`) and the critical points.
    Raises BracketError unless F changes sign on the bracket or vanishes at
    one of its ends, and when brentq stops after its 100 steps.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    # cached, so that brentq reuses the two end values read here
    f = functools.cache(lambda chi: _d_mu_vol_unit(ctx, chi, lam))
    if np.sign(f(lo)) * np.sign(f(hi)) > 0:
        raise BracketError(f"the obstruction has no sign change on [{lo}, {hi}] "
                           f"(F({lo})={f(lo):.3g}, F({hi})={f(hi):.3g})")
    try:
        # xtol is one ulp's worth at the smallest chi the solver tells from 0
        return float(brentq(f, lo, hi, xtol=CHI_ZERO_THRESHOLD * 2.0 ** -52,
                            rtol=4.0 * 2.0 ** -52))
    except RuntimeError as exc:
        raise BracketError(f"no root found on [{lo}, {hi}]: {exc}") from exc


def find_critical(ctx: FunctionalContext, lam: float):
    """All roots of the log-volume chi-derivative in SCAN_GRID's window.

    Each grid zero of `critical_brackets` is a root, and each of its sign
    changes holds the `obstruction_root` there.
    """
    roots = [lo if lo == hi else obstruction_root(ctx, lam, (lo, hi))
             for lo, hi in critical_brackets(ctx, lam)]
    if not roots:
        # properness guarantees a minimizer; take the grid point where
        # log Vol is least
        roots.append(float(SCAN_GRID[np.argmin(_log_vol(ctx._moments(SCAN_GRID), lam))]))
    out = []
    for rt in sorted(roots):
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
    t = np.asarray(t_arr, dtype=float)
    return (_log_vol(ctx._moments(w_dir.chi * t), lam) / t).tolist()


def W_check(ctx: FunctionalContext, eta: TorusWeight, kappa: float) -> float:
    """kappa^{-1} W(kappa eta, kappa^{-1}), continuously extended to kappa = 0.

    W(xi, lam) = log(Vol^lam(xi) / mass0^lam) - s_mean; the kappa = 0 limit
    is -2 C(eta).
    """
    if kappa == 0.0:
        return -2.0 * C_functional(ctx, eta)
    m, m0 = ctx._moments(eta.scaled(kappa).chi), ctx._origin
    s0 = _sbar(m, 0.0)
    # theta_bar - (log mass - log mass0), with ref cancelled in closed form
    tb_lm = m.shift - m.chi * m.t1 - m.log_mass + m0.log_mass
    return float((s0 - ctx.stats0[0]) / kappa - tb_lm / kappa ** 2)


def lambda_inf(ctx: FunctionalContext) -> float:
    """Threshold below which the origin is a local volume minimizer.

    The minimized ratio over the rank-1 torus; requires the classical
    obstruction to vanish (true on the line), in which case the value is
    normalization-independent.
    """
    m = ctx._origin
    _, _, cov, var = ctx.stats0
    # avg0((s - s_mean) tau^2) with tau = ref + u
    s_tau2 = m.at2 - m.a * m.t2 + 2.0 * m.ref * cov
    return float((s_tau2 + 2.0 * m.phi) / var)


def vol_report(ctx: FunctionalContext, w: TorusWeight, lam: float) -> VolReport:
    return futaki_report(ctx, w, lam, w)[0]


def futaki_report(ctx: FunctionalContext, w: TorusWeight, lam: float, w_dir: TorusWeight):
    """(vol_report at w, futaki at w along w_dir), from one kernel call."""
    m = ctx._moments(w.chi)
    f0, f1 = _obstruction(m)
    report = VolReport(
        log_vol=float(_log_vol(m, lam)),
        sbar=float(_sbar(m, lam)),
        theta_bar=float(_theta_bar(m)),
        futaki_self=float(w.chi * (f0 + lam * f1)),
        nu_self=float(w.chi ** 2 * _var(m)),
        lambda_xi=_lambda_xi(m) if w.chi != 0.0 else None,
    )
    return report, w_dir.chi * float(f0 + lam * f1)
