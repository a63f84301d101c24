"""Momentum-profile representations.

A profile is the function phi(tau) = u''(rho(tau)) on the moment interval;
metric positivity is phi > 0 on the open interval.  Three representations:

* PolynomialProfile -- explicit polynomial coefficients (references, the
  chi=0 branch on the line).
* ClosedFormProfile -- psi(tau) = (a + b tau) e^{chi tau} + poly(tau) with
  phi = psi / (1 - k tau); covers both solver branches (chi=0 stores
  a = b = 0 and a cubic).  The coefficients stay in the arithmetic of the
  solve: floats, or mpfs where the float form cancels catastrophically
  (small |chi|, large |chi|*width).  psi^(n) has one formula, evaluated
  vectorised for floats and node by node in mpmath for mpfs.  For mpfs,
  `psi_bound` also evaluates it in floats with a derived bound on the gap to
  the mpmath value, so that a caller (the positivity certificate) needs
  the node-by-node mpmath values only where that bound cannot decide.
* SampledProfile -- values and derivatives on a grid, spline-interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from mpmath import mp, mpf

MP_DPS = 40


def _as_array(tau):
    return np.asarray(tau, dtype=float)


def poly_deriv(coeffs, t, n=0):
    """n-th derivative of sum_j c_j t^j at a scalar t, as a power sum.

    The power sum (not Horner) fixes the rounding of the boundary rows and of
    the mp node values.
    """
    return sum(math.perm(j, n) * c * t ** (j - n) for j, c in enumerate(coeffs) if j >= n)


@dataclass(frozen=True)
class PolynomialProfile:
    coeffs: tuple
    domain: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "domain", (float(self.domain[0]), float(self.domain[1])))

    def value(self, tau):
        return np.polynomial.polynomial.polyval(_as_array(tau), self.coeffs)

    def deriv(self, tau):
        d = np.polynomial.polynomial.polyder(self.coeffs)
        return np.polynomial.polynomial.polyval(_as_array(tau), d)

    def deriv2(self, tau):
        d2 = np.polynomial.polynomial.polyder(self.coeffs, 2)
        return np.polynomial.polynomial.polyval(_as_array(tau), d2)


@dataclass(frozen=True)
class ClosedFormProfile:
    """phi = [(a + b tau) e^{chi tau} + poly(tau)] / (1 - k tau).

    a, b and poly_coeffs are floats or mpfs, as the solve produced them; chi,
    k, domain and lam are floats.
    """

    a: float
    b: float
    chi: float
    poly_coeffs: tuple
    k: int
    domain: tuple
    lam: float = 0.0

    @property
    def use_mp(self) -> bool:
        return isinstance(self.a, mpf)

    # -- psi = (1 - k tau) phi ------------------------------------------------

    def psi_value(self, tau):
        return self._psi(tau, 0)

    def psi_deriv(self, tau):
        return self._psi(tau, 1)

    def psi_deriv2(self, tau):
        return self._psi(tau, 2)

    def _psi(self, tau, n):
        """n-th derivative of psi in the coefficients' arithmetic.

        Float coefficients: vectorised over tau.  mpf coefficients: an mpf
        tau is evaluated in the working precision and returned as an mpf;
        any other tau node by node in MP_DPS digits, rounded to floats.
        """
        if not self.use_mp:
            return self._psi_at(_as_array(tau), n)
        if isinstance(tau, mpf):
            return self._psi_at(tau, n)
        nodes = np.atleast_1d(_as_array(tau))
        with mp.workdps(MP_DPS):
            out = np.array([float(self._psi_at(mpf(t), n)) for t in nodes.ravel()])
        return out.reshape(nodes.shape) if np.ndim(tau) else float(out[0])

    def _psi_at(self, t, n):
        a, b, chi = self.a, self.b, self.chi
        if self.use_mp:
            chi = mpf(chi)
            e, poly = mp.exp(chi * t), poly_deriv(self.poly_coeffs, t, n)
        else:
            e = np.exp(chi * t)
            poly = np.polynomial.polynomial.polyval(
                t, np.polynomial.polynomial.polyder(self.poly_coeffs, n))
        # d^n/dtau^n (a + b tau) e^{chi tau} = (chi^n (a + b tau) + n b chi^{n-1}) e^{chi tau}
        expo = chi ** n * (a + b * t)
        if n:
            expo = expo + n * b * chi ** (n - 1)
        return expo * e + poly

    def psi_bound(self, tau, n):
        """(value, bound) of psi^(n) at the float nodes tau, for n = 0 or 2.

        value is `_psi_at` evaluated in floats from the float-rounded
        coefficients; bound B satisfies |value - float(psi^(n) in MP_DPS
        digits)| <= B at every node.  An infinite or NaN value or bound
        leaves the node undecided.

        With u = 2^-53, every float operation and the rounding of each
        coefficient err by at most u relative to the magnitude of the term
        they feed, and M = |chi|^n (|a| + |b||tau|) e^{chi tau}
        + n |b| |chi|^{n-1} e^{chi tau} + sum_j |c_j^(n)| |tau|^{j-n} bounds
        the magnitude of every term.  The rounding of chi*tau perturbs the
        exponential by u |chi tau| relative.  C = 32 covers the coefficient
        roundings, `np.exp` (a few ulp), the at most ~15 operations of the
        formula and the final rounding of the MP_DPS-digit value (u / 2
        relative, its own error being ~1e-40 relative), so B = u (|chi tau|
        + C) M.  The relative model fails only on underflow: a coefficient
        that rounds below the normal range, or any underflowing operation,
        makes every bound infinite.
        """
        t = _as_array(tau)
        coeffs = (self.a, self.b, *self.poly_coeffs)
        rounded = [float(c) for c in coeffs]
        undecided = np.full(t.shape, np.nan), np.full(t.shape, np.inf)
        if any(c != 0 and abs(x) < np.finfo(float).tiny for c, x in zip(coeffs, rounded)):
            return undecided
        a, b, *poly = rounded
        chi = self.chi
        with np.errstate(under="raise", over="ignore", invalid="ignore"):
            try:
                value = replace(self, a=a, b=b, poly_coeffs=tuple(poly))._psi_at(t, n)
                size = abs(chi) ** n * (abs(a) + abs(b) * np.abs(t))
                if n:
                    size = size + n * abs(b) * abs(chi) ** (n - 1)
                size = size * np.exp(chi * t) + np.polynomial.polynomial.polyval(
                    np.abs(t), np.polynomial.polynomial.polyder(np.abs(poly), n))
            except FloatingPointError:
                return undecided
        return value, 2.0 ** -53 * (np.abs(chi * t) + 32.0) * size

    # -- phi ------------------------------------------------------------------

    def _den(self, t):
        return 1.0 - self.k * t

    def value(self, tau):
        t = _as_array(tau)
        return self.psi_value(t) / self._den(t)

    def deriv(self, tau):
        t = _as_array(tau)
        den = self._den(t)
        return (self.psi_deriv(t) * den + self.k * self.psi_value(t)) / den ** 2

    def deriv2(self, tau):
        t = _as_array(tau)
        den = self._den(t)
        psi, dpsi, d2psi = self.psi_value(t), self.psi_deriv(t), self.psi_deriv2(t)
        return (d2psi * den ** 2 + 2.0 * self.k * dpsi * den + 2.0 * self.k ** 2 * psi) / den ** 3


@dataclass(frozen=True)
class SampledProfile:
    grid: tuple
    values: tuple
    deriv_values: tuple
    domain: tuple

    def __post_init__(self):
        from scipy.interpolate import CubicHermiteSpline

        spline = CubicHermiteSpline(
            np.asarray(self.grid, dtype=float),
            np.asarray(self.values, dtype=float),
            np.asarray(self.deriv_values, dtype=float),
        )
        object.__setattr__(self, "_spline", spline)

    def value(self, tau):
        return self._spline(_as_array(tau))

    def deriv(self, tau):
        return self._spline.derivative(1)(_as_array(tau))

    def deriv2(self, tau):
        return self._spline.derivative(2)(_as_array(tau))


def sample_profile(profile, n: int = 257) -> SampledProfile:
    lo, hi = profile.domain
    ts = np.linspace(lo, hi, n)
    return SampledProfile(tuple(ts), tuple(profile.value(ts)), tuple(profile.deriv(ts)), (lo, hi))
