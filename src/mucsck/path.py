"""Continuity-path and phase-structure analysis.

Traces lam -> chi(lam) families of solved metrics on the cached obstruction
curve, certifies positivity on the one-point blow-up of the plane through
the third-derivative root of the profile, estimates the uniqueness threshold
lam_freeze, and classifies the critical-point structure of the volume
profile.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .dh import TorusWeight
from .errors import BracketError, EvaluationError, MucsckError
from .functionals import (SCAN_GRID, FunctionalContext, _d_mu_vol_unit, critical_brackets,
                          extremal_chi, find_critical, obstruction_root)
from .solver import SolveResult, _solve_root, solve_coefficients
from .solver import residual  # noqa: F401  bench/test_bench.py wraps it in this namespace
from .surfaces import SurfaceSpec

# a root the cached curve cannot bracket is sought at prev * 2 ** +-k,
# k = 1 .. GROW_STEPS, for the previous root prev; the kernel reads F's sign
# right up to |chi| * width of about 1e5, not at 5e5
GROW_STEPS = 10


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


# -- positivity on the blow-up of the plane ------------------------------------------


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


def _grown_bracket(ctx: FunctionalContext, lam: float, prev: float):
    """A sign change of F among prev * 2 ** +-k, nearest prev on its side of 0."""
    f = lambda chi: _d_mu_vol_unit(ctx, chi, lam)  # noqa: E731
    sign = np.sign(f(prev))
    for k in range(1, GROW_STEPS + 1):
        for near, far in ((prev * 2.0 ** (k - 1), prev * 2.0 ** k),
                          (prev * 2.0 ** (1 - k), prev * 2.0 ** -k)):
            try:
                if np.sign(f(far)) != sign:
                    return tuple(sorted((near, far)))
            except EvaluationError:  # the weight's mass underflows this far out
                pass
    raise BracketError(f"no sign change of the obstruction around chi={prev} at lam={lam}")


def _branch_root(ctx: FunctionalContext, lam: float, prev: float) -> float:
    """The root of F = F0 + lam F1 continuous with the previous root prev.

    The nonzero root nearest prev among the cached curve's brackets; when the
    curve has none (a root past |chi| = 30, or inside 1e-3 on the line just
    above 4/m), a bracket grown from prev; when that fails too, the trivial
    root chi = 0 of the line, where the branch merges onto the
    constant-curvature solution.
    """
    brackets = critical_brackets(ctx, lam)
    nonzero = [b for b in brackets if b != (0.0, 0.0)]
    if nonzero:
        lo, hi = min(nonzero, key=lambda b: max(b[0] - prev, prev - b[1]))
        return lo if lo == hi else obstruction_root(ctx, lam, (lo, hi))
    if prev != 0.0:
        try:
            return obstruction_root(ctx, lam, _grown_bracket(ctx, lam, prev))
        except BracketError:
            pass
    if (0.0, 0.0) in brackets:
        return 0.0
    raise BracketError(f"no root of the obstruction continuous with chi={prev} at lam={lam}")


def trace(spec: SurfaceSpec, lambda_grid, seed_bracket) -> list:
    """Continuation over the lambda grid on the cached obstruction curve.

    Each point is the root of F = F0 + lam F1 (`functionals.obstruction_root`)
    and one boundary solve there, as in `solver.solve_chi`: on seed_bracket
    until a point is solved, then continuous with the last solved chi
    (`_branch_root`).  One FunctionalContext serves the whole grid.
    Per-point failures are recorded as gap points, not raised.
    """
    grid = list(lambda_grid)
    diffs = [b - a for a, b in zip(grid, grid[1:])]
    if diffs and not (all(d > 0 for d in diffs) or all(d < 0 for d in diffs)):
        raise ValueError("lambda_grid must be monotone")
    ctx = FunctionalContext(spec)
    points = []
    prev = None
    for lam in grid:
        try:
            if prev is None:
                chi = obstruction_root(ctx, lam, seed_bracket)
            else:
                chi = _branch_root(ctx, lam, prev)
            res = _solve_root(spec, lam, chi)
            points.append(PathPoint(lam, res.chi, res))
            prev = res.chi
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
    count = lambda lam: max(1, len(critical_brackets(ctx, lam)))  # noqa: E731
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
