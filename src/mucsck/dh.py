"""Quadrature against Duistermaat-Heckman measures with exponential weights.

A measure is an interval [tau_min, tau_max] carrying a polynomial density
p(tau) and a global scale.  Every functional in the toolkit reduces to
integrals of the form

    scale * int f(tau) p(tau) exp(-chi tau) dtau,

so this module is the single integration backend, and the moment kernel
`_end_moments` is its one evaluator.

The rule is one fixed composite Gauss-Legendre rule: PANELS equal panels of
GAUSS_NODES nodes each.  The integrands are entire in tau, so it converges
geometrically: 128 panels integrate e^{-chi tau} to 5e-15 relative at
|chi| * width = 630, past the properness scan's 400, and 128 is where an
adaptive panel doubling (tolerance 1e-12) stopped on every integral of the
test suite.  `_panel_nodes` is the one source of nodes and weights, also
for the energy grid.  `DHMeasure.rule` caches the nodes, weights and
density values; an integrand is given as values there or as a callable.

The kernel evaluates many weights at once.  Measured from the end where
e^{-chi tau} peaks, which `_peak_end` picks for the kernel, the
functionals and the energy weights alike (tau_min for chi >= 0, else
tau_max), a node lies h (1 + x_j) past the edge e_p of its panel nearest
that end (h the half panel width, x_j a Gauss node), so the weight factors
as e^{-chi (tau - ref)} = e^{-|chi| |e_p - ref|} e^{-|chi| h (1 + x_j)}.
Both exponents are <= 0, so no factor overflows for any finite chi, and a
chi costs PANELS + GAUSS_NODES exponentials and one product with a stack of
node columns cached by `_end_stacks`.  When every chi peaks at one end, as a
single chi always does, the kernel reads that end's stack without masking,
one matrix-vector product per row, so that a row is the same float alone or
in a batch.
The columns are centred at the same end, so the moments are the shifted
one-pass sums of Chan, Golub and LeVeque (Amer. Statist. 1983) and their
differences lose no accuracy.  The public integrals are readings of one
kernel row (`_reading`); a result past the float range raises
EvaluationError naming chi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvaluationError

GAUSS_NODES = 16
PANELS = 128

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GAUSS_NODES)


@dataclass(frozen=True)
class TorusWeight:
    """Exponential weight e^{-chi tau}; chi = 0 is the unweighted case."""

    chi: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.chi):
            raise ValueError(f"chi must be finite, got {self.chi}")

    def scaled(self, t: float) -> "TorusWeight":
        return TorusWeight(self.chi * t)


@dataclass(frozen=True)
class DHMeasure:
    """Interval with polynomial density and scale: scale * p(tau) dtau.

    Parameters
    ----------
    tau_min, tau_max : float
        Support interval, tau_min < tau_max.
    density_coeffs : tuple of float
        Coefficients of p(tau) = sum c_i tau^i, low order first.
    scale : float
        Positive global factor (absorbs the 2*pi powers of fibre/base
        integration once, at construction).
    """

    tau_min: float
    tau_max: float
    density_coeffs: tuple = (1.0,)
    scale: float = 1.0

    def __post_init__(self):
        if not (self.tau_min < self.tau_max):
            raise ValueError(f"need tau_min < tau_max, got [{self.tau_min}, {self.tau_max}]")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")
        object.__setattr__(self, "density_coeffs", tuple(float(c) for c in self.density_coeffs))
        # densities in scope have degree <= 1, so 1001 samples plus endpoint
        # signs decide positivity
        ts = np.linspace(self.tau_min, self.tau_max, 1001)
        vals = self.density(ts)
        interior = vals[1:-1]
        if np.any(interior <= 0.0):
            bad = ts[1:-1][interior <= 0.0][0]
            raise ValueError(f"density is not positive on the open interval (p({bad}) <= 0)")
        if vals[0] < 0.0 or vals[-1] < 0.0:
            raise ValueError("density is negative at an interval endpoint")

    def density(self, tau):
        return np.polynomial.polynomial.polyval(np.asarray(tau, dtype=float), self.density_coeffs)

    @cached_property
    def rule(self):
        """(nodes, weights, density at nodes) of the composite Gauss rule; read-only."""
        nodes, weights = _panel_nodes(self)
        arrays = (nodes, weights, self.density(nodes))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @property
    def width(self) -> float:
        return self.tau_max - self.tau_min

    def shifted(self, c: float) -> "DHMeasure":
        """The measure of tau' = tau + c (density transported accordingly)."""
        poly = np.polynomial.polynomial.Polynomial(self.density_coeffs)
        moved = poly(np.polynomial.polynomial.Polynomial([-c, 1.0]))
        return DHMeasure(self.tau_min + c, self.tau_max + c, tuple(moved.coef), self.scale)


def _edges(measure: DHMeasure, panels: int = PANELS):
    return np.linspace(measure.tau_min, measure.tau_max, panels + 1)


def _panel_nodes(measure: DHMeasure, panels: int = PANELS):
    """Nodes and weights of the composite Gauss-Legendre rule on the interval."""
    edges = _edges(measure, panels)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    weights = half[:, None] * _GL_W[None, :]
    return nodes.ravel(), weights.ravel()


def _peak_end(chis):
    """Per chi, 0 (tau_min) where e^{-chi tau} peaks at tau_min, else 1 (tau_max)."""
    return (np.asarray(chis, dtype=float) < 0.0).astype(int)


def _end_stacks(measure: DHMeasure, columns, ends=(0, 1)):
    """The node columns of `columns(ref)`, laid out for `_end_moments`.

    columns(ref) returns the columns' values on rule[0] for the moments
    centred at ref; it is called for ref = tau_min (end 0) and ref = tau_max
    (end 1), for each end in `ends`.  Each column is multiplied by scale *
    density * weight and checked finite (an EvaluationError names the node),
    and the weight itself is prepended as column 0.  Per end, the nodes are
    ordered from that end inward (the tau_max stack reversed; the Gauss
    nodes are symmetric) into a (PANELS, K * GAUSS_NODES) array, next to the
    distances from the end to each panel's nearer edge.  Returns (node
    offsets h (1 + x_j), ((distances, stack) at tau_min, (distances, stack)
    at tau_max)), with None for an end not in `ends`.
    """
    nodes, weights, dens = measure.rule
    edges = _edges(measure)
    lo, hi = measure.tau_min, measure.tau_max
    sides = ((lo, slice(None), edges[:-1] - lo), (hi, slice(None, None, -1), hi - edges[:0:-1]))
    built = [None, None]
    for end in ends:
        ref, order, dist = sides[end]
        with np.errstate(all="ignore"):
            g = measure.scale * dens * weights
            cols = np.array([g] + [g * c for c in columns(ref)])
        bad = ~np.all(np.isfinite(cols), axis=0)
        if bad.any():
            node = float(nodes[bad][0])
            raise EvaluationError(f"integrand is not finite at tau={node}", node=node)
        cols = cols[:, order].reshape(len(cols), PANELS, GAUSS_NODES).transpose(1, 0, 2)
        built[end] = (dist, np.ascontiguousarray(cols).reshape(PANELS, -1))
    return 0.5 * measure.width / PANELS * (1.0 + _GL_X), tuple(built)


def _end_moments(stacks, chis):
    """(log-masses, averages) of the `_end_stacks` columns at every chi of `chis`.

    The moments at chi are centred at ref, the end `_peak_end(chi)`: the
    log-mass is log(scale int p e^{-chi (tau - ref)}), so log_mass(measure,
    chi) = log-mass - chi ref, and row i of the averages holds the weighted
    averages of the columns at chis[i] (without column 0).  Only the stacks
    of the ends where some chi peaks are read; another may be None.  A
    vanishing mass or a non-finite average raises EvaluationError naming chi.
    """
    offsets, ends = stacks
    chis = np.asarray(chis, dtype=float)
    a = np.abs(chis)[:, None]
    peak = _peak_end(chis)
    negative = np.count_nonzero(peak)
    with np.errstate(all="ignore"):
        if negative in (0, len(chis)):  # one side, as a single chi always is: no masking
            end = int(negative > 0)
            dist, stack = ends[end]
            panel, node = np.exp(-(a * dist)), np.exp(-(a * offsets))
            # a product per row (one gemv each, not one gemm for all), so
            # that a row does not depend on the rows read with it; one row
            # is that gemv already
            rows = panel @ stack if len(a) == 1 else np.matmul(panel[:, None, :], stack)
            by_node = rows.reshape(len(a), -1, GAUSS_NODES)
            sums = np.einsum("nkg,ng->nk", by_node, node)
        else:
            sums = np.empty((len(chis), ends[0][1].shape[1] // GAUSS_NODES))
            for end, (dist, stack) in enumerate(ends):
                side = peak == end
                panel, node = np.exp(-(a[side] * dist)), np.exp(-(a[side] * offsets))
                by_node = (panel @ stack).reshape(len(panel), -1, GAUSS_NODES)
                sums[side] = np.einsum("nkg,ng->nk", by_node, node)
        mass = sums[:, 0]
        avgs = sums[:, 1:] / mass[:, None]
    bad = ~((mass > 0.0) & np.isfinite(mass) & np.isfinite(avgs).all(axis=1))
    if np.count_nonzero(bad):
        chi = float(chis[bad][0])
        raise EvaluationError(
            f"the weighted mass vanishes or a moment is not finite at chi={chi!r}")
    return np.log(mass), avgs


def _reading(measure: DHMeasure, f, chi: float):
    """(log_mass, weighted average of f) at chi from one kernel row, on the
    stack of the end where the weight peaks only; f is a callable or its
    values on rule[0]."""
    nodes = measure.rule[0]
    fv = np.broadcast_to(np.asarray(f(nodes) if callable(f) else f, dtype=float), nodes.shape)
    end = int(_peak_end(chi))
    log_masses, avgs = _end_moments(_end_stacks(measure, lambda ref: (fv,), (end,)), [chi])
    ref = (measure.tau_min, measure.tau_max)[end]
    return float(log_masses[0]) - chi * ref, float(avgs[0, 0])


def _in_range(value: float, chi: float) -> float:
    if not math.isfinite(value):
        raise EvaluationError(f"the weighted integral is past the float range at chi={chi!r}")
    return value


def integrate_weighted(measure: DHMeasure, f, w: TorusWeight) -> float:
    """scale * int f(tau) p(tau) e^{-chi tau} dtau; f is a callable or its values on rule[0].

    Raises EvaluationError naming the node if f is non-finite there.
    """
    lm, avg = _reading(measure, f, w.chi)
    with np.errstate(over="ignore"):
        return _in_range(float(np.exp(lm) * avg), w.chi)


def log_mass(measure: DHMeasure, w: TorusWeight) -> float:
    """log of integrate_weighted(measure, 1, w), stable for any chi."""
    return _in_range(_reading(measure, 1.0, w.chi)[0], w.chi)


def weighted_average(measure: DHMeasure, f, w: TorusWeight) -> float:
    """int f p e^{-chi tau} / int p e^{-chi tau}; overflow-safe in chi."""
    return _reading(measure, f, w.chi)[1]


def moment(measure: DHMeasure, w: TorusWeight, order: int) -> float:
    """integrate_weighted with f = tau^order, order <= 4."""
    if not (isinstance(order, (int, np.integer)) and 0 <= order <= 4):
        raise ValueError(f"order must be an integer in [0, 4], got {order!r}")
    return integrate_weighted(measure, lambda t: t ** order, w)


def barycenter(measure: DHMeasure, w: TorusWeight) -> float:
    """Weighted mean of tau: moment 1 over moment 0 (computed shift-safely)."""
    return weighted_average(measure, lambda t: t, w)


def variance(measure: DHMeasure, w: TorusWeight) -> float:
    """Weighted variance of tau; the nu-kernel for unit directions."""
    mean = barycenter(measure, w)
    return weighted_average(measure, lambda t: (t - mean) ** 2, w)
