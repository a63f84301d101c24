"""Independent computations the benchmark checks program outputs against.

Nothing here calls the program's solver or quadrature.  The boundary problem
is re-derived from its differential equation and solved in extended
precision; the line and the one-point blow-up of the plane also have
closed-form lambda(chi) relations, and the volume functional on the line has
a closed form with its chi-derivative.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf

DPS = 50
EPS = np.finfo(float).eps


def _particular(q, chi):
    """Polynomial p with (D - chi)^2 p = q, coefficients low order first.

    On polynomials (D - chi)^{-2} = chi^{-2} sum_n (n + 1) (D / chi)^n.
    """
    out = [mpf(0)] * len(q)
    deriv = list(q)
    n = 0
    while deriv:
        fac = (n + 1) / chi ** (n + 2)
        for j, c in enumerate(deriv):
            out[j] += fac * c
        deriv = [j * c for j, c in enumerate(deriv)][1:]
        n += 1
    return out


def _poly(coeffs, t):
    return sum(c * t ** j for j, c in enumerate(coeffs))


def _dpoly(coeffs, t):
    return sum(j * c * t ** (j - 1) for j, c in enumerate(coeffs) if j)


def _solve3(rows, rhs):
    """Cramer's rule for a 3x3 system."""

    def det(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det(rows)
    out = []
    for j in range(3):
        mj = [[rhs[i] if col == j else rows[i][col] for col in range(3)] for i in range(3)]
        out.append(det(mj) / d)
    return out


class Surface:
    """Moment interval, boundary targets and right-hand side of one surface.

    kind "CP1": phi on (0, 2m), (D - chi)^2 phi = lam chi tau - c,
    phi(0) = phi(2m) = 0, phi'(0) = 2, free target phi'(2m) = -2.
    kind "Ruled": psi = (1 - k tau) phi on (-m, 0),
    (D - chi)^2 psi = -chi lam k tau^2 + (chi lam + k c) tau + (2 - 2 genus - c),
    phi(-m) = phi(0) = 0, phi'(0) = -1, free target phi'(-m) = +1.
    """

    def __init__(self, kind, m, k=0, genus=0):
        self.kind, self.m, self.k, self.genus = kind, float(m), int(k), int(genus)
        if kind == "CP1":
            self.lo, self.hi = 0.0, 2.0 * self.m
        else:
            self.lo, self.hi = -self.m, 0.0

    @classmethod
    def from_config(cls, blob):
        return cls(blob["kind"], blob["m"], blob.get("k", 0), blob.get("genus", 0))

    def _rhs(self, lam, chi):
        """(q_c, q_0): right-hand side polynomials with q = c q_c + q_0."""
        if self.kind == "CP1":
            return [mpf(-1)], [mpf(0), lam * chi]
        k, lg = mpf(self.k), mpf(2 - 2 * self.genus)
        return [mpf(-1), k], [lg, chi * lam, -chi * lam * k]

    def solve(self, lam, chi):
        """(a, b, c, p) with psi = (a + b t) e^{chi t} + p(t); call inside workdps."""
        lam, chi = mpf(lam), mpf(chi)
        q_c, q_0 = self._rhs(lam, chi)
        p_c, p_0 = _particular(q_c, chi), _particular(q_0, chi)
        k = mpf(self.k)
        rows, rhs = [], []
        for t in (mpf(self.lo), mpf(self.hi)):
            e = mp.exp(chi * t)
            rows.append([e, t * e, _poly(p_c, t)])
            rhs.append(-_poly(p_0, t))
        # phi'(0) in psi terms is psi'(0) + k psi(0)
        target = 2 if self.kind == "CP1" else -1
        rows.append([chi + k, mpf(1), _dpoly(p_c, 0) + k * _poly(p_c, 0)])
        rhs.append(target - _dpoly(p_0, 0) - k * _poly(p_0, 0))
        a, b, c = _solve3(rows, rhs)
        n = max(len(p_c), len(p_0))
        p = [(p_0[j] if j < len(p_0) else 0) + c * (p_c[j] if j < len(p_c) else 0)
             for j in range(n)]
        return a, b, c, p

    def residual(self, lam, chi):
        """phi' at the free endpoint minus its target, as an mpf."""
        with mp.workdps(DPS):
            a, b, c, p = self.solve(lam, chi)
            chi, k = mpf(chi), mpf(self.k)
            t = mpf(self.hi) if self.kind == "CP1" else mpf(self.lo)
            e = mp.exp(chi * t)
            psi = (a + b * t) * e + _poly(p, t)
            dpsi = (b + chi * (a + b * t)) * e + _dpoly(p, t)
            den = 1 - k * t
            dphi = (dpsi * den + k * psi) / den ** 2
            return dphi - (-2 if self.kind == "CP1" else 1)

    def profile_check(self, lam, chi, n):
        """(c, min phi) over n interior points of an even grid.

        phi is evaluated in floats from the extended-precision coefficients;
        points whose float value does not clear its rounding bound are
        evaluated again in extended precision.
        """
        with mp.workdps(DPS):
            a, b, c, p = self.solve(lam, chi)
            ts = np.linspace(self.lo, self.hi, n + 2)[1:-1]
            af, bf, chif = float(a), float(b), float(chi)
            pf = [float(v) for v in p]
            expo = (af + bf * ts) * np.exp(chif * ts)
            poly = np.polynomial.polynomial.polyval(ts, pf)
            size = np.abs(expo) + np.polynomial.polynomial.polyval(np.abs(ts), np.abs(pf))
            psi = expo + poly
            unsure = np.nonzero(psi <= 64.0 * EPS * size)[0]
            for i in unsure:
                t = mpf(ts[i])
                psi[i] = float((a + b * t) * mp.exp(mpf(chi) * t) + _poly(p, t))
            phi = psi / (1.0 - self.k * ts)
            return float(c), float(np.min(phi))


def newton_step(f, x):
    """f(x) / f'(x) in extended precision: how far x is from the nearby root of f."""
    with mp.workdps(DPS):
        x = mpf(x)
        h = mpf(10) ** -15 * max(1, abs(x))
        d = (f(x + h) - f(x - h)) / (2 * h)
        return float(f(x) / d)


def lambda_at(surface, chi):
    """The lam whose solution has weight chi: the residual is affine in lam."""
    with mp.workdps(DPS):
        r0, r1 = surface.residual(0, chi), surface.residual(1, chi)
        return float(-r0 / (r1 - r0))


# -- closed forms ---------------------------------------------------------------


def cp1_lambda_of_chi(chi):
    """lam(chi) on the unit line: 2 (chi^2 - chi sh ch) / (chi^2 - sh^2)."""
    with mp.workdps(DPS):
        x = mpf(chi)
        sh, ch = mp.sinh(x), mp.cosh(x)
        return 2 * (x ** 2 - x * sh * ch) / (x ** 2 - sh ** 2)


def p2_lambda_of_chi(chi):
    """lam(chi), chi < 0, on the blow-up of the plane in the class 2 pi (F + 2 B)."""
    with mp.workdps(DPS):
        x = mpf(chi)
        e2, em2 = mp.exp(2 * x), mp.exp(-2 * x)
        num = (9 * x ** 2 - 6 * x - 2) * e2 + (-x ** 2 + 2 * x - 2) * em2 + (
            -12 * x ** 3 + 16 * x ** 2 + 4 * x + 4)
        den = (9 * x ** 2 - 12 * x + 2) * e2 + (x ** 2 - 4 * x + 2) * em2 + (
            -12 * x ** 4 + 16 * x ** 3 - 2 * x ** 2 + 16 * x - 4)
        return x * num / den


def muvol_cp1(lam, chi, m):
    """(lam - 2/m) x coth x - lam log(sinh x / x) - lam log(2 pi m), x = -m chi."""
    with mp.workdps(DPS):
        x = -mpf(m) * mpf(chi)
        lam = mpf(lam)
        if x == 0:
            coth_term, log_term = mpf(1), mpf(0)
        else:
            coth_term, log_term = x / mp.tanh(x), mp.log(mp.sinh(x) / x)
        return (lam - 2 / mpf(m)) * coth_term - lam * log_term - lam * mp.log(2 * mp.pi * m)


def dmuvol_cp1(lam, chi, m):
    """chi-derivative of log Vol on the line; odd in chi, so zero at chi = 0."""
    with mp.workdps(DPS):
        x = -mpf(m) * mpf(chi)
        if x == 0:
            return mpf(0)
        m, lam = mpf(m), mpf(lam)
        sh, ch = mp.sinh(x), mp.cosh(x)
        return m * ((2 / m) * (x ** 2 - x * sh * ch) - lam * (x ** 2 - sh ** 2)) / (x * sh ** 2)


def d2muvol_cp1(lam, chi, m):
    """Second chi-derivative of log Vol on the line, by a central difference."""
    with mp.workdps(DPS):
        h = mpf(10) ** -15
        x = mpf(chi)
        return (dmuvol_cp1(lam, x + h, m) - dmuvol_cp1(lam, x - h, m)) / (2 * h)


def log_mass(surface, chi):
    """log of int pi e^{-chi t} (line) or int 2 pi (1 - k t) e^{-chi t} (ruled)."""
    with mp.workdps(DPS):
        x = mpf(chi)
        lo, hi = mpf(surface.lo), mpf(surface.hi)
        if surface.kind == "CP1":
            scale, k = mp.pi, mpf(0)
        else:
            scale, k = 2 * mp.pi, mpf(surface.k)
        if x == 0:
            val = (hi - lo) - k * (hi ** 2 - lo ** 2) / 2
        else:
            def prim(t):
                return (k / x - (1 - k * t)) * mp.exp(-x * t) / x
            val = prim(hi) - prim(lo)
        return mp.log(scale * val)
