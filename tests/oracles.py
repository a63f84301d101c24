"""Independent oracles used by the test suite.

Everything here is deliberately dumb and separate from the library code:
brute-force quadrature, independently derived closed forms, and
finite differences.  Tests compare the production paths against these.
"""

import math
import sys

import numpy as np
from mpmath import mp, mpf

from mucsck.dh import GAUSS_NODES, _end_stacks
from mucsck.errors import EvaluationError, MucsckError
from mucsck.solver import mu_curvatures


class PoleError(MucsckError):
    """A closed form hit a pole of the expression."""


def trapezoid_weighted(tau_min, tau_max, density_coeffs, scale, f, chi, n=1_000_001):
    """Brute-force trapezoid value of scale * int f p e^{-chi tau} dtau."""
    ts = np.linspace(tau_min, tau_max, n)
    p = np.polynomial.polynomial.polyval(ts, density_coeffs)
    vals = f(ts) * p * np.exp(-chi * ts)
    return scale * np.trapezoid(vals, ts)


def unit_density_mass(tau_min: float, tau_max: float, chi: float) -> float:
    """Closed form of int_a^b e^{-chi tau} dtau with a Taylor branch near chi=0.

    The /chi formula cancels catastrophically for small chi; below 1e-6 a
    6-term expansion in chi is exact to double precision.
    """
    if abs(chi) < 1e-6:
        total = 0.0
        for j in range(6):
            total += (-chi) ** j * (tau_max ** (j + 1) - tau_min ** (j + 1)) / math.factorial(j + 1)
        return total
    return (math.exp(-chi * tau_min) - math.exp(-chi * tau_max)) / chi


def node_sum_integral(measure, f, chi, shift=0.0):
    """scale * int f p e^{-chi tau - shift} dtau by one plain sum over the
    nodes of measure.rule; f is a callable or its values there."""
    nodes, weights, dens = measure.rule
    fv = np.broadcast_to(np.asarray(f(nodes) if callable(f) else f, dtype=float), nodes.shape)
    return measure.scale * float(np.sum(fv * dens * np.exp(-chi * nodes - shift) * weights))


def node_sum_log_mass_and_average(measure, f, chi):
    """(log scale int p e^{-chi tau}, weighted average of f) by node sums.

    The weight is shifted by the max of -chi tau over the interval, so no
    factor exceeds 1; the shift is added back to the log-mass.
    """
    shift = max(-chi * measure.tau_min, -chi * measure.tau_max)
    mass = node_sum_integral(measure, 1.0, chi, shift)
    return math.log(mass) + shift, node_sum_integral(measure, f, chi, shift) / mass


def cp1_closed_form_abc(lam, chi):
    """Closed forms of (a, b, c) on the unit line."""
    sh, e = np.sinh(chi), np.exp(chi)
    a = (2 * lam * sh - 2 * chi * e) / (chi * (sh - chi * e))
    b = (2 - 2 * lam) * sh / (sh - chi * e) - lam / chi
    c = (2 * lam * chi * sh - 2 * chi ** 2 * e) / (sh - chi * e) + 2 * lam
    return a, b, c


def cp1_lambda_equation(lam, chi):
    """lam (chi^2 - sinh^2 chi) - 2 (chi^2 - chi sinh chi cosh chi)."""
    return lam * (chi ** 2 - np.sinh(chi) ** 2) - 2.0 * (
        chi ** 2 - chi * np.sinh(chi) * np.cosh(chi)
    )


def cp1_lambda_of_chi(chi):
    """lam solving the unit-line shooting relation at given chi."""
    return 2.0 * (chi ** 2 - chi * np.sinh(chi) * np.cosh(chi)) / (
        chi ** 2 - np.sinh(chi) ** 2
    )


def ruled_closed_form_c(lam, chi, k=1, lg=2.0, m=2.0):
    """Closed form of c(chi) on the ruled surface."""
    e = np.exp(-m * chi)
    den = (m * chi ** 2 + (1 - m * k) * chi - 2 * k) * e - (1 + m * k) * chi + 2 * k
    num = (
        (-m * chi ** 3 + m * (lam + lg) * chi ** 2 + (2 * lam + lg - 2 * lam * k * m) * chi
         - 6 * lam * k) * e
        + (m ** 2 * lam + m * lam) * chi ** 2 - (4 * m * lam * k + 2 * lam + lg) * chi
        + 6 * lam * k
    )
    return num / den


def ruled_closed_form_ab(lam, chi, c, k=1, lg=2.0):
    a = c * (chi - 2 * k) / chi ** 3 + ((-2 * lam - lg) * chi + 6 * lam * k) / chi ** 3
    b = c * (-chi + k) / chi ** 2 + (-chi ** 2 + (lam + lg) * chi - 2 * lam * k) / chi ** 2
    return a, b


def muvol_cp1_closed_form(lam, chi, m=1.0):
    """(lam - 2/m) x coth x - lam log(sinh x / x) - lam log(2 pi m), x = -m chi.

    The toolkit weight e^{-chi tau} on (0, 2m) corresponds to x = -m*chi of
    the closed form; the expression is even in x.
    """
    x = -m * chi
    if abs(x) < 1e-8:
        coth_term, log_term = 1.0 + x * x / 3.0, x * x / 6.0
    else:
        coth_term = x / np.tanh(x)
        log_term = np.log(np.sinh(x) / x)
    return (lam - 2.0 / m) * coth_term - lam * log_term - lam * np.log(2 * np.pi * m)


def central_diff(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_diff(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / h ** 2

def muvol_cp1_derivative(lam, chi, m=1.0):
    """Closed-form chi-derivative of log Vol on the line.

    In the profile's own variable x = -m chi the derivative of the
    sign-flipped profile is [(2/m)(x^2 - x sh x ch x) - lam (x^2 - sh^2 x)]
    / (x sh^2 x); the chain rule gives d log Vol / d chi = m * that at x.
    """
    x = -m * chi
    sh, ch = np.sinh(x), np.cosh(x)
    return m * ((2.0 / m) * (x ** 2 - x * sh * ch) - lam * (x ** 2 - sh ** 2)) / (x * sh ** 2)


def node_sum_functionals(ctx, chi, lam, dps=40):
    """(futaki in the unit direction, nu in the unit direction, sbar) at chi.

    Sums over the nodes of the context's rule in `dps` digits.  Only the
    inputs are floats: the nodes, weights and density values, and the
    reference profile's psi-jet there; the curvatures (the formula of
    `solver.mu_curvatures`) and the weight e^{-chi tau} are taken in mpmath.
    The Futaki invariant is the covariance -(avg(s^lam tau) - avg(s^lam)
    avg(tau)), which does not depend on where tau is measured from.
    """
    from mpmath import exp, fsum

    from mucsck.surfaces import CP1

    spec = ctx.spec
    t, w, d = ctx.measure.rule
    with mp.workdps(dps):
        x, lam_, k = mpf(chi), mpf(lam), mpf(spec.k)
        base = mpf(0) if spec.kind == CP1 else mpf(spec.l_g)
        ts = [mpf(float(v)) for v in t]
        jet = [[mpf(float(v)) for v in arr] for arr in ctx.jet]
        s_lam, s_box = [], []
        for tv, psi, dpsi, d2psi in zip(ts, *jet):
            den = 1 - k * tv
            s_lam.append(-(d2psi - 2 * x * dpsi + x ** 2 * psi) / den + x * lam_ * tv + base / den)
            s_box.append((-d2psi + x * dpsi + base) / den)
        wt = [mpf(float(a)) * mpf(float(b)) * exp(-x * tv) for a, b, tv in zip(w, d, ts)]
        mass = fsum(wt)

        def avg(vals):
            return fsum(q * v for q, v in zip(wt, vals)) / mass

        tau = avg(ts)
        box = avg(s_box)
        futaki = -(avg([v * tv for v, tv in zip(s_lam, ts)]) - avg(s_lam) * tau)
        nu = avg([(tv - tau) ** 2 for tv in ts])
        sbar = box + lam_ * x * tau - lam_ * mpf(ctx.shift)
        return float(futaki), float(nu), float(sbar)


def masked_moment_reader(ctx):
    """A reader of the context's kernel moments at one chi by the masked array
    path: both ends' stacks built at once, one boolean mask per side, the
    rows scattered into one sums array, and row 0 of each field.

    The reader returns the 19 fields of `functionals._Moments` as a tuple and
    raises as `FunctionalContext._moments` does.  It is a plain copy of that
    arithmetic, kept apart from the library's one-side path.
    """
    measure, t = ctx.measure, ctx.measure.rule[0]
    with np.errstate(all="ignore"):
        _, A = mu_curvatures(ctx.spec, 0.0, 0.0, t, ctx.jet)
        s_plus, box_plus = mu_curvatures(ctx.spec, 1.0, 0.0, t, ctx.jet)
        s_minus, _ = mu_curvatures(ctx.spec, -1.0, 0.0, t, ctx.jet)
        B = 0.5 * (s_plus - s_minus)
        C = 0.5 * (s_plus + s_minus) - A
        B0 = box_plus - A
        phi = ctx.jet[0] / (1.0 - ctx.spec.k * t)

    def columns(ref):
        i = 0 if ref == measure.tau_min else -1
        u, a, b, c = t - ref, A - A[i], B - B[i], C - C[i]
        u2 = u * u
        return u, u2, u2 * u, a, B0, b, c, a * u, b * u, c * u, a * u2, b * u2, c * u2, phi

    offsets, ends = _end_stacks(measure, columns)

    def read(chi):
        c = np.atleast_1d(np.asarray(chi, dtype=float))
        ok = np.abs(c) <= math.sqrt(sys.float_info.max)
        if not ok.all():
            bad = float(c[~ok][0])
            if not math.isfinite(bad):
                raise ValueError(f"chi must be finite, got {bad}")
            raise EvaluationError(f"chi ** 2 leaves the float range at chi={bad!r}")
        sums = np.empty((len(c), ends[0][1].shape[1] // GAUSS_NODES))
        peak = (c < 0.0).astype(int)
        for end, (dist, stack) in enumerate(ends):
            side = peak == end
            if not side.any():
                continue
            a = np.abs(c[side])[:, None]
            with np.errstate(over="ignore"):
                panel, node = np.exp(-(a * dist)), np.exp(-(a * offsets))
            by_node = (panel @ stack).reshape(len(a), -1, GAUSS_NODES)
            sums[side] = np.einsum("nkg,ng->nk", by_node, node)
        mass = sums[:, 0]
        with np.errstate(all="ignore"):
            avgs = sums[:, 1:] / mass[:, None]
        bad = ~((mass > 0.0) & np.isfinite(mass) & np.isfinite(avgs).all(axis=1))
        if bad.any():
            raise EvaluationError("the weighted mass vanishes or a moment is not finite "
                                  f"at chi={float(c[bad][0])!r}")
        refs = np.array([measure.tau_min, measure.tau_max])[peak]
        fields = tuple(f[0] for f in (c, refs, A[[0, -1]][peak], np.log(mass), *avgs.T))
        return (*fields[:3], ctx.shift, *fields[3:])

    return read


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


def inverse_polynomial_jet(coeffs, t, dps=40):
    """(1/p, (1/p)', (1/p)'') at t in dps digits for p = sum coeffs[i] t^i.

    With the coefficients and t taken as exact, these are U'', U''' and U''''
    of the symplectic potential of the profile p.
    """
    with mp.workdps(dps):
        cs, x = [mpf(float(c)) for c in coeffs], mpf(float(t))
        p = sum(c * x ** i for i, c in enumerate(cs))
        p1 = sum(i * c * x ** (i - 1) for i, c in enumerate(cs) if i >= 1)
        p2 = sum(i * (i - 1) * c * x ** (i - 2) for i, c in enumerate(cs) if i >= 2)
        return 1 / p, -p1 / p ** 2, -p2 / p ** 2 + 2 * p1 ** 2 / p ** 3


def scalar_root_path(ctx):
    """The root finding of `functionals` and `path` one bracket at a time, as
    it was before the brackets were refined together: scipy's brentq per
    bracket over one float reading of F per step.

    Returns (root, find_critical, trace_chis): root(lam, bracket) raises
    BracketError as `obstruction_root` does, find_critical(lam) is
    `functionals.find_critical`, and trace_chis(lambda_grid, seed_bracket)
    lists the chi of each point of `path.trace` (None for a gap).
    """
    import functools

    from scipy.optimize import brentq

    from mucsck.errors import BracketError
    from mucsck.functionals import SCAN_GRID, _d_mu_vol_unit, _log_vol, critical_brackets
    from mucsck.path import _grown_bracket
    from mucsck.solver import CHI_ZERO_THRESHOLD, _solve_root

    def root(lam, bracket):
        lo, hi = float(bracket[0]), float(bracket[1])
        f = functools.cache(lambda chi: _d_mu_vol_unit(ctx, chi, lam))
        if np.sign(f(lo)) * np.sign(f(hi)) > 0:
            raise BracketError(f"the obstruction has no sign change on [{lo}, {hi}]")
        try:
            return float(brentq(f, lo, hi, xtol=CHI_ZERO_THRESHOLD * 2.0 ** -52,
                                rtol=4.0 * 2.0 ** -52))
        except RuntimeError as exc:
            raise BracketError(f"no root found on [{lo}, {hi}]: {exc}") from exc

    def find_critical(lam):
        roots = [lo if lo == hi else root(lam, (lo, hi)) for lo, hi in critical_brackets(ctx, lam)]
        if not roots:
            roots.append(float(SCAN_GRID[np.argmin(_log_vol(ctx._moments(SCAN_GRID), lam))]))
        out = []
        for rt in sorted(roots):
            if not out or abs(rt - out[-1]) > 1e-8 * max(1.0, abs(rt)):
                out.append(rt)
        return out

    def branch_root(lam, prev):
        brackets = critical_brackets(ctx, lam)
        nonzero = [b for b in brackets if b != (0.0, 0.0)]
        if nonzero:
            lo, hi = min(nonzero, key=lambda b: max(b[0] - prev, prev - b[1]))
            return lo if lo == hi else root(lam, (lo, hi))
        if prev != 0.0:
            try:
                return root(lam, _grown_bracket(ctx, lam, prev))
            except BracketError:
                pass
        if (0.0, 0.0) in brackets:
            return 0.0
        raise BracketError(f"no root continuous with chi={prev} at lam={lam}")

    def trace_chis(lambda_grid, seed_bracket):
        chis, prev = [], None
        for lam in lambda_grid:
            try:
                chi = root(lam, seed_bracket) if prev is None else branch_root(lam, prev)
                prev = _solve_root(ctx.spec, lam, chi).chi
                chis.append(prev)
            except MucsckError:
                chis.append(None)
        return chis

    return root, find_critical, trace_chis
