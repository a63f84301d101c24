"""Boundary-value solver for the constant-curvature profile equation.

In momentum coordinates the constant-curvature condition on the line reads

    -(d/dtau - chi)^2 phi + lam*chi*tau = c,

and on a ruled surface, with psi = (1 - k tau) phi,

    (d/dtau - chi)^2 psi = -chi*lam*k*tau^2 + (chi*lam + k*c)*tau + (l_g - c).

For chi != 0 the general solution is (a + b tau) e^{chi tau} plus an explicit
particular polynomial; three of the four boundary targets (both endpoint
values and the derivative at tau = 0) are imposed as a linear system in
(a, b, c), and the remaining derivative is the shooting residual.  The
coefficients always come from the numerically solved system; explicit
closed forms for them exist but serve only as test oracles.

Arithmetic: the exponential basis degenerates against {1, tau} as chi -> 0
and overflows conditioning for large |chi|*width, so outside a comfortable
float window the boundary system is built and solved in mpmath.  Every
helper takes the arithmetic from a `one` argument (1.0 or mpf(1)); the
solved ClosedFormProfile keeps its coefficients in that arithmetic.  It
evaluates a float tau in floats (mp coefficients through a float form
converted in MP_DPS digits) and an mpf tau in mpmath.

Roots: the residual r and the obstruction F = F0 + lam F1 of `functionals`
(futaki in the unit direction) are both affine in lam,

    F = chi var(tau) (lambda_xi(chi) - lam),    r = (r1 - r0) (lam - lambda_xi(chi)),

with r1 - r0 the residual's lam-slope, so they vanish together for chi != 0
and their signs differ by sign(chi) sign(r1 - r0).  `solve_chi` finds the
root on F, which the moment kernel reads in about 0.04 ms without
cancellation near chi = 0, and makes one boundary solve there.  A root is
certified when |r| <= the tolerance it met, kept as SolveResult.residual_tol:

* RESIDUAL_TOL when the residual meets it;
* otherwise a root solved in floats is solved again in MP_DPS digits (the
  1/chi^3 terms of the particular part cost the float residual about 1e-9
  near |chi| = 1e-2), and that result is reported;
* if it still misses, r cannot resolve a float chi: r moves by |dr/dchi|
  |chi| eps per ulp of chi (eps = 2^-52).  The slope comes from one more
  solve at a relative step SLOPE_STEP, one secant step moves chi onto the
  zero of r (F is exact to a few ulps only), and the tolerance is
  max(RESIDUAL_TOL, RESOLUTION_ULPS |dr/dchi| |chi| eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from mpmath import mp, mpf
from scipy.optimize import brentq

from .dh import TorusWeight
from .errors import ChiZeroBranchError, DegenerateParameterError, DomainError
from .profiles import ClosedFormProfile, _poly_deriv
from .surfaces import CP1, SurfaceSpec

CHI_ZERO_THRESHOLD = 1e-6
CHI_MP_SMALL = 1e-2
CHI_WIDTH_MP = 10.0
MP_DPS = 60

RESIDUAL_TOL = 1e-10
RESOLUTION_ULPS = 2.0
SLOPE_STEP = 1e-7
ODE_RESIDUAL_TOL = 1e-8
SCAN_POINTS = 10001
ODE_GRID = 401


def _needs_mp(spec: SurfaceSpec, chi: float) -> bool:
    width = spec.tau_hi - spec.tau_lo
    return abs(chi) < CHI_MP_SMALL or abs(chi) * width > CHI_WIDTH_MP


def _psi_parts(spec: SurfaceSpec, lam, chi, one):
    """Particular-part polynomials of psi, affine in c: psi_p = c*P3 + P4.

    `one` fixes the arithmetic (1.0 for floats, mpf(1) for extended).
    Coefficients are low-order first.
    """
    k = one * spec.k
    lg = one * spec.l_g
    lam = one * lam
    chi = one * chi
    if spec.kind == CP1:
        p3 = [-1 / chi ** 2]
        p4 = [2 * lam / chi ** 2, lam / chi]
    else:
        p3 = [(2 * k - chi) / chi ** 3, k / chi ** 2]
        p4 = [((2 * lam + lg) * chi - 6 * lam * k) / chi ** 3,
              lam * (chi - 4 * k) / chi ** 2,
              -lam * k / chi]
    return p3, p4


@dataclass(frozen=True)
class PositivityCertificate:
    min_phi: float
    argmin: float
    inflection_points: tuple
    tau0: float | None
    verdict: bool
    method: str
    flagged: bool = False

    def to_dict(self):
        return {
            "min_phi": self.min_phi,
            "argmin": self.argmin,
            "inflection_points": list(self.inflection_points),
            "tau0": self.tau0,
            "verdict": self.verdict,
            "method": self.method,
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class SolveResult:
    lam: float
    chi: float
    a: float
    b: float
    c: float
    residual: float
    ode_sup_residual: float
    positivity: PositivityCertificate
    profile: ClosedFormProfile
    residual_tol: float = RESIDUAL_TOL  # the tolerance |residual| is held to (module docstring)

    @property
    def certified(self) -> bool:
        return (
            abs(self.residual) <= self.residual_tol
            and self.ode_sup_residual <= ODE_RESIDUAL_TOL
            and self.positivity.verdict
        )

    def to_dict(self):
        return {
            "lambda": self.lam,
            "chi": self.chi,
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "residual": self.residual,
            "ode_sup_residual": self.ode_sup_residual,
            "positivity": self.positivity.to_dict(),
            "certified": self.certified,
        }


# -- linear solve --------------------------------------------------------------


def _imposed_rows(spec: SurfaceSpec, lam, chi, one):
    """Rows of the 3x3 system in psi-space for unknowns (a, b, c).

    Conditions: phi(lo) = bc.value_lo, phi(hi) = bc.value_hi, phi'(0) = the
    imposed derivative.  In psi-space: psi(t) = v (1 - k t) for values, and
    phi'(0) = psi'(0) + k psi(0).
    """
    exp = math.exp if isinstance(one, float) else mp.exp
    k = one * spec.k
    chi = one * chi
    p3, p4 = _psi_parts(spec, lam, chi, one)
    lo = one * spec.tau_lo
    hi = one * spec.tau_hi
    zero = one * 0
    bc = spec.bc
    deriv0 = bc.deriv_lo if spec.tau_lo == 0.0 else bc.deriv_hi

    rows = []
    rhs = []
    for t, v in ((lo, bc.value_lo), (hi, bc.value_hi)):
        e = exp(chi * t)
        rows.append([e, t * e, _poly_deriv(p3, t)])
        rhs.append(v * (1 - k * t) - _poly_deriv(p4, t))
    # derivative row at tau = 0: psi'(0) + k psi(0)
    rows.append([chi + k, one * 1, _poly_deriv(p3, zero, 1) + k * _poly_deriv(p3, zero)])
    rhs.append(one * deriv0 - _poly_deriv(p4, zero, 1) - k * _poly_deriv(p4, zero))
    return rows, rhs, p3, p4


def _solve(spec: SurfaceSpec, lam, chi: float, one):
    """(c, profile) from the boundary system, in the arithmetic of `one`.

    Only the 3x3 solve and the float back-substitution check depend on it.
    """
    rows, rhs, p3, p4 = _imposed_rows(spec, lam, chi, one)
    # column scaling maps exponentially small/large unknowns to O(1) and
    # keeps mpmath's pivot tolerance honest
    dc = [1 / max(abs(row[j]) for row in rows) for j in range(3)]
    scaled = [[row[j] * dc[j] for j in range(3)] for row in rows]
    use_float = isinstance(one, float)
    try:
        if use_float:
            y = np.linalg.solve(np.array(scaled), np.array(rhs))
        else:
            y = mp.lu_solve(mp.matrix(scaled), mp.matrix(rhs))
    except (np.linalg.LinAlgError, ZeroDivisionError) as exc:
        raise DegenerateParameterError(f"singular boundary system: {exc}", lam=lam, chi=chi)
    x = [y[j] * dc[j] for j in range(3)]
    if use_float:
        _check_back_substitution(rows, rhs, x, lam, chi)
        x = [float(v) for v in x]
    a, b, c = x
    poly = [p4[j] + c * p3[j] if j < len(p3) else p4[j] for j in range(len(p4))]
    profile = ClosedFormProfile(a, b, chi, tuple(poly), spec.k,
                                (spec.tau_lo, spec.tau_hi), float(lam))
    return float(c), profile


def _check_back_substitution(rows, rhs, x, lam, chi):
    """The imposed conditions must actually hold for the float solution."""
    A = np.array(rows, dtype=float)
    r = np.array(rhs, dtype=float)
    x = np.array(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DegenerateParameterError("non-finite solve output", lam=lam, chi=chi)
    back = np.abs(A @ x - r)
    tol = 1e-9 * (np.abs(A) @ np.abs(x) + np.abs(r) + 1.0)
    if np.any(back > tol):
        raise DegenerateParameterError(
            f"boundary system too ill-conditioned at (lam={lam}, chi={chi})", lam=lam, chi=chi
        )


def solve_coefficients(spec: SurfaceSpec, lam: float, w: TorusWeight):
    """Impose the three boundary conditions; returns (a, b, c)."""
    c, profile = _solve_with_profile(spec, lam, w)
    return float(profile.a), float(profile.b), c


def _solve_with_profile(spec: SurfaceSpec, lam: float, w: TorusWeight, extended=False):
    """(c, profile), in MP_DPS digits if `extended` or if chi needs them."""
    chi = float(w.chi)
    if abs(chi) < CHI_ZERO_THRESHOLD:
        raise ChiZeroBranchError(
            f"|chi|={abs(chi):g} is below {CHI_ZERO_THRESHOLD:g}; use chi_zero_branch"
        )
    if extended or _needs_mp(spec, chi):
        with mp.workdps(MP_DPS):
            return _solve(spec, lam, chi, mpf(1))
    return _solve(spec, lam, chi, 1.0)


# -- the chi = 0 polynomial branch ----------------------------------------------


def chi_zero_branch(spec: SurfaceSpec, lam: float) -> SolveResult:
    """Direct polynomial integration of the degenerate (chi = 0) equation."""
    m = spec.m
    if spec.kind == CP1:
        c = 2.0 / m
        poly = (0.0, 2.0, -1.0 / m)  # Fubini-Study profile
    else:
        k, lg = spec.k, spec.l_g
        c = (6.0 + 3.0 * m * lg) / (3.0 * m + m * m * k)
        poly = (0.0, -1.0, (lg - c) / 2.0, k * c / 6.0)
    profile = ClosedFormProfile(0.0, 0.0, 0.0, poly, spec.k, (spec.tau_lo, spec.tau_hi), lam)
    return build_result(spec, lam, TorusWeight(0.0), c, profile)


# -- residual and root finding ---------------------------------------------------


def _free_deriv(spec: SurfaceSpec, profile: ClosedFormProfile, one):
    """phi' at the free endpoint, in the arithmetic of `one`.

    With one = 1.0 the psi values are floats (from the float form for an mp
    profile); with one = mpf(1) they are mpfs in the working precision.
    It reads psi through `_psi`, out of the benchmark tracer's per-call
    records of `psi_*`.
    """
    t = one * spec.free_endpoint
    den = 1 - spec.k * t
    return (profile._psi(t, 1) * den + spec.k * profile._psi(t, 0)) / den ** 2


def _shooting_residual(spec: SurfaceSpec, profile: ClosedFormProfile) -> float:
    return float(_free_deriv(spec, profile, 1.0)) - spec.free_deriv_target


def residual(spec: SurfaceSpec, lam: float, w: TorusWeight) -> float:
    """phi' at the free endpoint minus its target; continuous across chi=0."""
    if abs(w.chi) < CHI_ZERO_THRESHOLD:
        return chi_zero_branch(spec, lam).residual
    _, profile = _solve_with_profile(spec, lam, w)
    return _shooting_residual(spec, profile)


def psi_jet(spec: SurfaceSpec, profile, t):
    """(psi, psi', psi'') of psi = (1 - k tau) phi at the nodes t.

    A ClosedFormProfile of the surface's k gives them directly; any other
    profile goes through phi, phi', phi''.
    """
    if isinstance(profile, ClosedFormProfile) and profile.k == spec.k:
        return profile.psi_value(t), profile.psi_deriv(t), profile.psi_deriv2(t)
    k = spec.k
    den = 1.0 - k * t
    phi, dphi, d2phi = profile.value(t), profile.deriv(t), profile.deriv2(t)
    return den * phi, den * dphi - k * phi, den * d2phi - 2.0 * k * dphi


def mu_curvatures(spec: SurfaceSpec, chi: float, lam: float, t, jet):
    """(s^lam, s + box theta) at the nodes t from the psi jet (psi, psi', psi'').

    s^lam = -(1-k tau)^{-1} (d/dtau - chi)^2 psi + chi lam tau + l_g/(1-k tau)
    is the weighted scalar curvature, s + box theta its Bakry-Emery part.  The
    line is the case k = 0 (psi = phi) without the base-curvature term l_g.
    """
    psi, dpsi, d2psi = jet
    den = 1.0 - spec.k * t
    base = 0.0 if spec.kind == CP1 else spec.l_g
    s_lam = -(d2psi - 2.0 * chi * dpsi + chi ** 2 * psi) / den + chi * lam * t + base / den
    s_box = (-d2psi + chi * dpsi + base) / den
    return s_lam, s_box


def mu_scalar_curvature(spec: SurfaceSpec, profile, w: TorusWeight, lam: float, tau):
    """Pointwise weighted scalar curvature s^lam of the profile's metric."""
    t = np.asarray(tau, dtype=float)
    lo, hi = spec.tau_lo, spec.tau_hi
    if np.any(t <= lo) or np.any(t >= hi):
        raise DomainError(f"tau must lie in the open interval ({lo}, {hi})")
    out = mu_curvatures(spec, w.chi, lam, t, psi_jet(spec, profile, t))[0]
    return out if np.asarray(tau).shape else float(out)


def ode_sup_residual(spec: SurfaceSpec, profile, w: TorusWeight, lam: float, c: float) -> float:
    lo, hi = spec.tau_lo, spec.tau_hi
    ts = np.linspace(lo, hi, ODE_GRID + 2)[1:-1]
    vals = mu_scalar_curvature(spec, profile, w, lam, ts)
    return float(np.max(np.abs(vals - c)))


def positivity_certificate(profile, spec: SurfaceSpec) -> PositivityCertificate:
    """Dense interior minimum scan combined with the analytic psi''' root.

    psi''' = (b chi^3 tau + a chi^3 + 3 b chi^2) e^{chi tau} has at most one
    root tau0; together with the inflection structure this bounds the shape,
    but the verdict itself is the scanned interior minimum.  Every profile
    is scanned in floats, one with mp coefficients through its float form.
    """
    lo, hi = spec.tau_lo, spec.tau_hi
    ts = np.linspace(lo, hi, SCAN_POINTS)[1:-1]
    closed_form = isinstance(profile, ClosedFormProfile)
    vals = np.asarray(profile.value(ts), dtype=float)
    i = int(np.argmin(vals))
    min_phi, argmin = float(vals[i]), float(ts[i])

    tau0 = None
    method = "scan"
    flagged = False
    if closed_form and profile.chi != 0.0:
        if profile.b != 0.0:
            tau0 = -float(profile.a) / float(profile.b) - 3.0 / profile.chi
            method = "analytic+scan"
        else:
            flagged = True

    inflections = []
    if closed_form:
        d2 = np.asarray(profile.psi_deriv2(ts), dtype=float)
        sign_change = np.nonzero(np.sign(d2[:-1]) * np.sign(d2[1:]) < 0)[0]
        for j in sign_change:
            try:
                # scalar steps read psi'' through `_psi`, as in `_free_deriv`
                root = brentq(lambda t: float(profile._psi(t, 2)), ts[j], ts[j + 1])
                inflections.append(float(root))
            except ValueError:
                flagged = True
    return PositivityCertificate(
        min_phi=min_phi,
        argmin=argmin,
        inflection_points=tuple(inflections),
        tau0=tau0,
        verdict=bool(min_phi > 0.0),
        method=method,
        flagged=flagged,
    )


def build_result(spec, lam, w, c, profile) -> SolveResult:
    res = _shooting_residual(spec, profile)
    sup = ode_sup_residual(spec, profile, w, lam, c)
    cert = positivity_certificate(profile, spec)
    return SolveResult(float(lam), float(w.chi), float(profile.a), float(profile.b), float(c),
                       res, sup, cert, profile)


def solve_at(spec: SurfaceSpec, lam: float, chi: float) -> SolveResult:
    """Assemble a full SolveResult at fixed (lam, chi) without root-finding."""
    w = TorusWeight(chi)
    if abs(chi) < CHI_ZERO_THRESHOLD:
        return chi_zero_branch(spec, lam)
    c, profile = _solve_with_profile(spec, lam, w)
    return build_result(spec, lam, w, c, profile)


def _solve_root(spec: SurfaceSpec, lam: float, chi: float) -> SolveResult:
    """The SolveResult at a root chi of the obstruction, certified as the
    module docstring says: one boundary solve when r meets RESIDUAL_TOL."""
    res = solve_at(spec, lam, chi)
    if abs(res.residual) <= RESIDUAL_TOL or res.chi == 0.0:
        return res
    w = TorusWeight(chi)
    if not res.profile.use_mp:
        res = build_result(spec, lam, w, *_solve_with_profile(spec, lam, w, extended=True))
        if abs(res.residual) <= RESIDUAL_TOL:
            return res
    step = SLOPE_STEP * chi
    _, profile = _solve_with_profile(spec, lam, TorusWeight(chi + step), extended=True)
    slope = (_shooting_residual(spec, profile) - res.residual) / step
    moved = chi - res.residual / slope if slope else chi
    if moved != chi and abs(moved - chi) <= abs(step):  # a secant step, never a jump
        w = TorusWeight(moved)
        res = build_result(spec, lam, w, *_solve_with_profile(spec, lam, w, extended=True))
    tol = RESOLUTION_ULPS * abs(slope * res.chi) * 2.0 ** -52
    return replace(res, residual_tol=max(RESIDUAL_TOL, tol))


def solve_chi(spec: SurfaceSpec, lam: float, bracket) -> SolveResult:
    """The solution whose chi is the root of the obstruction in the bracket.

    The root is `functionals.obstruction_root` (brentq on F, not on the
    residual); it gets one boundary solve, more only when its residual
    misses RESIDUAL_TOL (module docstring).  BracketError when F does not
    change sign on the bracket.
    """
    from .functionals import FunctionalContext, obstruction_root  # functionals imports this module

    return _solve_root(spec, lam, obstruction_root(FunctionalContext(spec), lam, bracket))


def flat_disk_limit_gap(spec: SurfaceSpec, chi: float) -> float:
    """sup over [0, 1.8] of |phi^{lam(chi)}_chi - 2 tau| on the unit line.

    lam(chi) solves the shooting residual; the residual is affine in lam for
    fixed chi, so one secant step is exact.  The whole determination runs in
    extended precision: lam - 2 chi decays like chi^2 e^{-2 chi}, and the
    exponential coefficients of the profile are hypersensitive to lam there.
    """
    if spec.kind != CP1 or spec.m != 1.0:
        raise ValueError("flat-disk limit is stated for the line with m = 1")
    if chi < 10.0:
        raise ValueError(f"need chi >= 10, got {chi}")
    with mp.workdps(MP_DPS):
        target = mpf(spec.free_deriv_target)
        r0, r1 = (_free_deriv(spec, _solve(spec, mpf(l), chi, mpf(1))[1], mpf(1)) - target
                  for l in (0, 1))
        lam = -r0 / (r1 - r0)
        profile = _solve(spec, lam, chi, mpf(1))[1]
    ts = np.linspace(0.0, 1.8, 1001)
    return float(np.max(np.abs(profile.value(ts) - 2.0 * ts)))
