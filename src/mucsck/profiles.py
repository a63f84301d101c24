"""Momentum-profile representations.

A profile is the function phi(tau) = u''(rho(tau)) on the moment interval;
metric positivity is phi > 0 on the open interval.  Three representations:

* PolynomialProfile -- explicit polynomial coefficients (references, the
  chi=0 branch on the line).
* ClosedFormProfile -- psi(tau) = (a + b tau) e^{chi tau} + poly(tau) with
  phi = psi / (1 - k tau); covers both solver branches (chi=0 stores
  a = b = 0 and a cubic).  The coefficients stay in the arithmetic of the
  solve: floats, or mpfs where the float form cancels catastrophically
  (small |chi|, large |chi|*width).  Every float tau is evaluated
  vectorised in floats: mpf coefficients are first rewritten, in the
  solve's precision, as a Taylor polynomial or as an exponential anchored
  at the end where it is largest, forms without the cancellation.  An mpf
  tau is evaluated in mpmath in the working precision.
* SampledProfile -- values and derivatives on a grid, spline-interpolated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf


def _as_array(tau):
    return np.asarray(tau, dtype=float)


def _poly_deriv(coeffs, t, n=0):
    """n-th derivative of sum_j c_j t^j at a scalar t, as a power sum.

    The power sum (not Horner) fixes the rounding of the boundary rows.
    """
    return sum(math.perm(j, n) * c * t ** (j - n) for j, c in enumerate(coeffs) if j >= n)


def _polyder(coeffs, n):
    """`numpy.polynomial.polynomial.polyder(coeffs, n)` as a list, with its rounding.

    Cheaper than numpy's call, which would cost more than a scalar psi value.
    """
    if n >= len(coeffs):
        return [coeffs[0] * 0]
    for _ in range(n):
        coeffs = [j * c for j, c in enumerate(coeffs)][1:]
    return coeffs


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
    k, domain and lam are floats.  Mpf coefficients are turned into a float
    form on construction, in the working precision, so build the profile
    inside the solve's `mp.workdps`.
    """

    a: float
    b: float
    chi: float
    poly_coeffs: tuple
    k: int
    domain: tuple
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "_form", self._float_form())

    @property
    def use_mp(self) -> bool:
        return isinstance(self.a, mpf)

    def _float_form(self):
        """(t0, jets, polys): psi^(n) = (f (A + B s) + g) e^{chi s} + polys[n](tau) in floats,
        with s = tau - t0 and (f, A, B, g) = jets[n], for n = 0, 1, 2.

        Float coefficients keep their formula and rounding: t0 = 0, jets[n] =
        (chi^n, a, b, n b chi^{n-1}).  Mpf coefficients are converted in the
        working precision, so the cancellations resolve before rounding: for
        x = |chi| * width <= 2.5 into the Taylor polynomial of psi about 0
        (`_taylor`, zero jets); otherwise, with t0 the end where chi tau is
        largest (e^{chi s} <= 1), A = (a + b t0) e^{chi t0} and B = b e^{chi t0},
        into jets[n] = (1, chi^n A + n chi^{n-1} B, chi^n B, 0).

        mp is used only for |chi| < 1e-2 or x > 10, so below width 100 any
        split in [1, 10] gives the same forms.  Wider surfaces reach x > 1 at
        small |chi|; there (CP1 m = 100, Ruled m = 30) the exponential form
        errs by 1.8e-14 of max|psi^(n)| at x = 2 and 7.8e-15 at 2.5, the
        Taylor form by 6.8e-15 at 2.5 and 1.3e-14 at 3.
        """
        chi, (lo, hi) = self.chi, self.domain
        t0, poly = 0.0, self.poly_coeffs
        if not self.use_mp:
            a, b = self.a, self.b
            jets = [(chi ** n, a, b, n * b * chi ** (n - 1) if n else 0.0) for n in range(3)]
        elif abs(chi) * (hi - lo) <= 2.5:
            jets, poly = [(0.0, 0.0, 0.0, 0.0)] * 3, self._taylor()
        else:
            t0 = hi if chi > 0 else lo
            x = mpf(chi)
            e = mp.exp(x * t0)
            a, b = (self.a + self.b * t0) * e, self.b * e
            jets = [(1.0, float(x ** n * a + n * x ** (n - 1) * b), float(x ** n * b), 0.0)
                    for n in range(3)]
        c = [float(v) for v in poly]
        return t0, jets, (c, _polyder(c, 1), _polyder(c, 2))

    def _taylor(self):
        """Taylor coefficients c_i = p_i + a e_i + b e_{i-1} of psi about 0 (mpfs).

        e_i = chi^i / i!.  The domain holds 0, so |tau| <= W, the width; x =
        |chi| W.  Past poly's degree |c_i| W^i <= T_i = (|a| |e_i| + |b|
        |e_{i-1}|) W^i with T_{i+1} <= (x / i) T_i, so (i+1)^2 T_{i+1} <=
        r_i i^2 T_i with r_i = ((i+1) / i)^2 x / i, falling with i.  Cut after N
        with r_{N+1} <= 1/2, the n-th derivative (n <= 2) of the dropped terms
        is at most W^-n 2 (N+1)^2 T_{N+1}; the cut is the first such N where
        that is below 2^-60 of max_{i<=N} |c_i| W^i (the scale of W^n psi^(n)).
        """
        a, b, poly = self.a, self.b, self.poly_coeffs
        chi = mpf(self.chi)
        width = mpf(self.domain[1]) - self.domain[0]
        x = abs(chi) * width
        coeffs, scale = [], mpf(0)
        prev, cur = mpf(0), mpf(1)  # e_{i-1}, e_i
        for i in itertools.count():
            c = a * cur + b * prev + (poly[i] if i < len(poly) else 0)
            coeffs.append(c)
            scale = max(scale, abs(c) * width ** i)
            prev, cur = cur, cur * chi / (i + 1)
            if i + 1 < len(poly) or 2 * (i + 2) ** 2 * x > (i + 1) ** 3:
                continue
            tail = 2 * (i + 1) ** 2 * (abs(a * cur) + abs(b * prev)) * width ** (i + 1)
            if not tail > 2.0 ** -60 * scale:  # a NaN coefficient stops here too
                return coeffs

    # -- psi = (1 - k tau) phi ------------------------------------------------

    def psi_value(self, tau):
        return self._psi(tau, 0)

    def psi_deriv(self, tau):
        return self._psi(tau, 1)

    def psi_deriv2(self, tau):
        return self._psi(tau, 2)

    def _psi(self, tau, n):
        """n-th derivative of psi.

        Float tau: vectorised over the float form.  An mpf tau with mpf
        coefficients: `_psi_at`, in the working precision, as an mpf.
        """
        if self.use_mp and isinstance(tau, mpf):
            return self._psi_at(tau, n)
        t = _as_array(tau)
        t0, jets, polys = self._form
        f, a, b, g = jets[n]
        s = t - t0
        expo = f * (a + b * s) + g
        return expo * np.exp(self.chi * s) + np.polynomial.polynomial.polyval(t, polys[n])

    def _psi_at(self, t, n):
        """psi^(n) at the mpf t from the mpf coefficients, as in `_psi`."""
        a, b, chi = self.a, self.b, mpf(self.chi)
        expo = chi ** n * (a + b * t)
        if n:
            expo = expo + n * b * chi ** (n - 1)
        return expo * mp.exp(chi * t) + _poly_deriv(self.poly_coeffs, t, n)

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
