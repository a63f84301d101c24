"""Symmetric surface geometries: the projective line and ruled surfaces.

A SurfaceSpec packages the momentum interval, the pushforward measure, the
boundary targets of the momentum profile, and the convention mapping the
exponential weight chi to a vector-field coefficient.  Two families are
supported:

* kind="CP1": interval (0, 2m), density 1, scale pi, class parameter m.
* kind="Ruled": P(L + O) over a genus-g curve with deg L = k >= 1, class
  2*pi*(F + m*B); interval (-m, 0), density 1 - k*tau, scale 2*pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dh import DHMeasure
from .profiles import PolynomialProfile

CP1 = "CP1"
RULED = "Ruled"


@dataclass(frozen=True)
class BoundaryConditions:
    """Profile targets phi(lo), phi(hi), phi'(lo), phi'(hi) on [lo, hi]."""

    value_lo: float
    value_hi: float
    deriv_lo: float
    deriv_hi: float


@dataclass(frozen=True)
class SurfaceSpec:
    kind: str
    m: float
    k: int = 0
    genus: int = 0

    def __post_init__(self):
        if self.kind not in (CP1, RULED):
            raise ValueError(f"unknown surface kind {self.kind!r}")
        if not (self.m > 0 and math.isfinite(self.m)):
            raise ValueError(f"class parameter m must be positive, got {self.m}")
        if self.kind == CP1 and (self.k != 0 or self.genus != 0):
            raise ValueError(f"the line has no degree or genus, got k={self.k}, genus={self.genus}")
        if self.kind == RULED:
            if not (isinstance(self.k, int) and self.k >= 1):
                raise ValueError(f"ruled surface needs integer degree k >= 1, got {self.k}")
            if not (isinstance(self.genus, int) and self.genus >= 0):
                raise ValueError(f"genus must be a nonnegative integer, got {self.genus}")

    @classmethod
    def cp1(cls, m: float = 1.0) -> "SurfaceSpec":
        return cls(kind=CP1, m=float(m))

    @classmethod
    def ruled(cls, k: int = 1, genus: int = 0, m: float = 2.0) -> "SurfaceSpec":
        return cls(kind=RULED, m=float(m), k=int(k), genus=int(genus))

    @classmethod
    def p2_blowup(cls) -> "SurfaceSpec":
        """CP^2 blown up in a point: P(O(1) + O) over CP^1, class 2pi(F+2B)."""
        return cls.ruled(k=1, genus=0, m=2.0)

    @property
    def l_g(self) -> float:
        """2 - 2*genus of the base curve (2 for the CP1 family itself)."""
        return 2.0 - 2.0 * self.genus if self.kind == RULED else 2.0

    @property
    def complex_dim(self) -> int:
        return 1 if self.kind == CP1 else 2

    @property
    def tau_lo(self) -> float:
        return 0.0 if self.kind == CP1 else -self.m

    @property
    def tau_hi(self) -> float:
        return 2.0 * self.m if self.kind == CP1 else 0.0

    @property
    def chi_convention(self) -> float:
        """Factor with chi = chi_convention * x for the vector field x.eta."""
        return 2.0 * math.pi if self.kind == CP1 else 4.0 * math.pi

    @cached_property
    def measure(self) -> DHMeasure:
        if self.kind == CP1:
            return DHMeasure(0.0, 2.0 * self.m, (1.0,), math.pi)
        return DHMeasure(-self.m, 0.0, (1.0, -float(self.k)), 2.0 * math.pi)

    @property
    def bc(self) -> BoundaryConditions:
        if self.kind == CP1:
            return BoundaryConditions(0.0, 0.0, 2.0, -2.0)
        return BoundaryConditions(0.0, 0.0, 1.0, -1.0)

    @property
    def free_endpoint(self) -> float:
        """Endpoint whose derivative condition is the shooting residual."""
        return self.tau_hi if self.kind == CP1 else self.tau_lo

    @property
    def free_deriv_target(self) -> float:
        return self.bc.deriv_hi if self.kind == CP1 else self.bc.deriv_lo

    def chi_to_x(self, chi: float) -> float:
        return chi / self.chi_convention

    def reference_profile(self) -> PolynomialProfile:
        """Canonical admissible profile (Fubini-Study-type quadratic)."""
        if self.kind == CP1:
            coeffs = (0.0, 2.0, -1.0 / self.m)  # tau(2m - tau)/m
        else:
            coeffs = (0.0, -1.0, -1.0 / self.m)  # -tau(tau + m)/m
        return PolynomialProfile(coeffs, (self.tau_lo, self.tau_hi))

    def perturbed_profile(self, eps: float = 0.05) -> PolynomialProfile:
        """A second admissible profile: reference + eps*(tau-lo)^2(tau-hi)^2.

        The bump vanishes to first order at both endpoints, so all four
        boundary targets survive; eps must keep the sum positive.
        """
        lo, hi = self.tau_lo, self.tau_hi
        bump = np.polynomial.polynomial.polymul(
            np.polynomial.polynomial.polypow((-lo, 1.0), 2),
            np.polynomial.polynomial.polypow((-hi, 1.0), 2),
        )
        base = np.zeros(5)
        base[: len(self.reference_profile().coeffs)] = self.reference_profile().coeffs
        coeffs = tuple(base + eps * bump)
        prof = PolynomialProfile(coeffs, (lo, hi))
        ts = np.linspace(lo, hi, 2001)[1:-1]
        with np.errstate(all="ignore"):  # an overflow is reported where the profile is used
            vals = prof.value(ts)
        if np.any(vals <= 0):
            raise ValueError(f"eps={eps} destroys positivity of the perturbed profile")
        return prof
