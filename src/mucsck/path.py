"""Continuity-path and phase-structure analysis.

Traces lam -> chi(lam) families of solved metrics with warm starts, checks
them against the closed-form lam(chi) relation on the one-point blow-up of
the projective plane, estimates the uniqueness threshold lam_freeze, and
classifies the critical-point structure of the volume profile.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .dh import TorusWeight
from .errors import BracketError, MucsckError, PoleError
from .functionals import (SCAN_GRID, FunctionalContext, critical_brackets, extremal_chi,
                          find_critical)
from .solver import SolveResult, residual, solve_at, solve_chi, solve_coefficients
from .surfaces import SurfaceSpec

SEED_ACCEPT = 1e-12


class WindowExhaustedError(MucsckError):
    def __init__(self, message, count_lo=None, count_hi=None):
        super().__init__(message)
        self.count_lo = count_lo
        self.count_hi = count_hi


@dataclass(frozen=True)
class PathPoint:
    lam: float
    chi: float | None
    result: SolveResult | None

    @property
    def ok(self) -> bool:
        return self.result is not None

    def to_row(self):
        if not self.ok:
            return [self.lam, None, None, None, None, None, None, 0]
        r = self.result
        return [r.lam, r.chi, r.a, r.b, r.c, r.residual, r.ode_sup_residual,
                int(r.positivity.verdict)]


@dataclass(frozen=True)
class PhaseDiagram:
    lambda_grid: tuple
    critical_counts: tuple
    classifications: tuple  # per lambda: tuple of (chi, "muvol_max"/"muvol_min")
    transition_lambda: float | None

    def to_dict(self):
        return {
            "lambda_grid": list(self.lambda_grid),
            "critical_counts": list(self.critical_counts),
            "classifications": [
                [{"chi": c, "kind": k} for c, k in row] for row in self.classifications
            ],
            "transition_lambda": self.transition_lambda,
        }


# -- closed form on the blow-up of the plane ------------------------------------------


def lambda_of_chi_p2blowup(chi: float) -> float:
    """lam(chi) for the blow-up of the plane in the class 2 pi (F + 2B).

    Rational-exponential closed form, evaluated in 40-digit arithmetic for
    every chi: numerator and denominator cancel to high order near chi = 0,
    and in double precision the cancellation still costs about 1e-8
    relative at |chi| = 0.05.  A scan of [-60, 0) finds no sign change of
    the denominator; only an exact zero raises PoleError.
    """
    if not chi < 0.0:
        raise ValueError(f"the closed form is stated for chi < 0, got {chi}")
    with mp.workdps(40):
        x = mpf(chi)
        e2, em2 = mp.exp(2 * x), mp.exp(-2 * x)
        num = (9 * x ** 2 - 6 * x - 2) * e2 + (-x ** 2 + 2 * x - 2) * em2 + (
            -12 * x ** 3 + 16 * x ** 2 + 4 * x + 4
        )
        den = (9 * x ** 2 - 12 * x + 2) * e2 + (x ** 2 - 4 * x + 2) * em2 + (
            -12 * x ** 4 + 16 * x ** 3 - 2 * x ** 2 + 16 * x - 4
        )
        if den == 0:
            raise PoleError(f"lambda(chi) denominator vanishes at chi={chi}")
        return float(x * num / den)


def tau0_sign_polynomials(chi: float):
    """(alpha, beta, gamma, delta) with a/b + 3/chi = (alpha + lam beta) /
    (chi (gamma + lam delta)) on the blow-up of the plane.

    Both numerator and denominator are affine in lam because the solved
    coefficients are; the four pieces here were derived symbolically from
    the coefficient closed forms.
    """
    e = math.exp(-2.0 * chi)
    alpha = (-2 * chi ** 4 + chi ** 3 + 2 * chi ** 2 - 6 * chi) * e + (
        9 * chi ** 3 - 14 * chi ** 2 + 6 * chi
    )
    beta = (-2 * chi ** 3 + 5 * chi ** 2 + 8 * chi - 6) * e + (
        -12 * chi ** 3 + 23 * chi ** 2 - 20 * chi + 6
    )
    gamma = (-chi ** 3 + 2 * chi ** 2 - 2 * chi) * e + (3 * chi ** 3 - 6 * chi ** 2 + 2 * chi)
    delta = (-chi ** 2 + 4 * chi - 2) * e + (-6 * chi ** 3 + 13 * chi ** 2 - 8 * chi + 2)
    return alpha, beta, gamma, delta


def tau0_positivity(chi: float, lam: float):
    """(tau0, tau0 > 0) for the third-derivative root of the profile numerator.

    tau0 > 0 places the only possible sign-structure breakdown outside the
    momentum interval, certifying positivity of the solved profile.
    """
    if not (-1.0 < chi < 0.0):
        raise ValueError(f"stated for chi in (-1, 0), got {chi}")
    if not lam < 0.0:
        raise ValueError(f"stated for lam < 0, got {lam}")
    spec = SurfaceSpec.p2_blowup()
    a, b, _ = solve_coefficients(spec, lam, TorusWeight(chi))
    tau0 = -a / b - 3.0 / chi
    return tau0, tau0 > 0.0


# -- tracing ---------------------------------------------------------------------------


def _expand_bracket(spec: SurfaceSpec, lam: float, seed: float):
    """Geometric expansion around the seed until the residual changes sign."""
    r_seed = residual(spec, lam, TorusWeight(seed))
    if abs(r_seed) <= SEED_ACCEPT:
        return (seed, seed)
    sign = np.sign(r_seed)
    lo = hi = seed  # nearest same-sign points flanking the seed
    d = max(0.05 * abs(seed), 1e-4)
    for _ in range(60):
        cand = seed - d
        if np.sign(residual(spec, lam, TorusWeight(cand))) != sign:
            return (cand, lo)
        lo = cand
        cand = seed + d
        if np.sign(residual(spec, lam, TorusWeight(cand))) != sign:
            return (hi, cand)
        hi = cand
        d *= 1.7
    raise BracketError(f"no sign change around seed chi={seed} at lam={lam}")


def trace(spec: SurfaceSpec, lambda_grid, seed_bracket) -> list:
    """Continuation over the lambda grid, warm-starting from the last root.

    Per-point failures are recorded as gap points, not raised; when several
    roots coexist the traced branch is the one continuous with the warm
    start (all roots at a given lam are the nonzero roots of find_critical).
    """
    grid = list(lambda_grid)
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValueError("lambda_grid must be monotone")
    points = []
    seed = None
    for i, lam in enumerate(grid):
        try:
            if i == 0 or seed is None:
                res = solve_chi(spec, lam, seed_bracket)
            else:
                lo, hi = _expand_bracket(spec, lam, seed)
                if lo == hi:
                    res = solve_at(spec, lam, lo)
                else:
                    res = solve_chi(spec, lam, (lo, hi))
            points.append(PathPoint(lam, res.chi, res))
            seed = res.chi
        except MucsckError:
            points.append(PathPoint(lam, None, None))
    return points


def extremal_limit_check(spec: SurfaceSpec, lambda_far: float):
    """(lam * chi(lam) from continuation, extremal weight from minimization).

    The first component follows the solved family to lambda_far by geometric
    continuation from lam = -1; the second is the independent convex route.
    """
    if not lambda_far < 0.0:
        raise ValueError("lambda_far must be negative")
    lams = [-1.0]
    while lams[-1] > lambda_far:
        lams.append(max(10.0 * lams[-1], lambda_far))
    if spec.kind == "CP1":
        seed_bracket = (-1e-3, 1e-3)
    else:
        seed_bracket = (-1.0, -1e-4)
    points = trace(spec, lams, seed_bracket)
    last = points[-1]
    if not last.ok:
        raise BracketError(f"continuation lost the branch before lam={lambda_far}")
    ctx = FunctionalContext(spec)
    return lambda_far * last.chi, extremal_chi(ctx)


# -- phase structure ----------------------------------------------------------------


def _freeze_bisect(ctx: FunctionalContext, lam_lo: float, lam_hi: float) -> float:
    # len(find_critical(ctx, lam)), read off the cached obstruction curve
    count = lambda lam: max(1, sum(len(ix) for ix in critical_brackets(ctx, lam)))  # noqa: E731
    n_lo, n_hi = count(lam_lo), count(lam_hi)
    if (n_lo > 1) == (n_hi > 1):
        raise WindowExhaustedError(
            f"critical multiplicity does not change on [{lam_lo}, {lam_hi}] "
            f"(counts {n_lo} and {n_hi})",
            count_lo=n_lo,
            count_hi=n_hi,
        )
    # the count changes only at levels -F0[i] / F1[i]: bisect on one test between two edges
    f0, f1 = ctx.obstruction_curve
    with np.errstate(divide="ignore", invalid="ignore"):
        levels = -f0 / f1
    edges = np.unique(np.r_[lam_lo, levels[(levels > lam_lo) & (levels < lam_hi)], lam_hi])
    k = bisect.bisect_left(0.5 * (edges[:-1] + edges[1:]), True,
                           key=lambda lam: (count(lam) > 1) == (n_hi > 1))
    return float(edges[k])


def lambda_freeze_estimate(spec: SurfaceSpec, scan) -> float:
    """Smallest lam at which the volume profile acquires extra critical points.

    The level of the cached obstruction curve at which the critical-point
    count changes between the two ends of `scan`, whose counts must differ.
    """
    return _freeze_bisect(FunctionalContext(spec), *sorted((float(scan[0]), float(scan[1]))))


def phase_diagram(spec: SurfaceSpec, lambda_grid) -> PhaseDiagram:
    """Critical-point counts and min/max classification per lambda.

    A root is a local maximum of the sign-flipped volume profile exactly when
    F0 + lam F1 rises from the scan-grid point left of it to the one right of
    it; the origin turning into a local minimum is the metastable regime.
    """
    ctx = FunctionalContext(spec)
    f0, f1 = ctx.obstruction_curve
    grid = tuple(float(v) for v in lambda_grid)
    rows = []
    for lam in grid:
        roots = find_critical(ctx, lam)
        vals = f0 + lam * f1
        left = np.clip(np.searchsorted(SCAN_GRID, roots) - 1, 0, None)
        right = np.clip(np.searchsorted(SCAN_GRID, roots, "right"), None, len(SCAN_GRID) - 1)
        rows.append(tuple(zip(roots, np.where(vals[right] > vals[left], "muvol_max",
                                              "muvol_min").tolist())))
    counts = tuple(len(row) for row in rows)
    transition = None
    multi = [c > 1 for c in counts]
    if any(multi) and not all(multi):
        lo = max(g for g, m in zip(grid, multi) if not m)
        hi = min(g for g, m in zip(grid, multi) if m)
        if lo < hi:
            transition = _freeze_bisect(ctx, lo, hi)
    return PhaseDiagram(grid, counts, tuple(rows), transition)
