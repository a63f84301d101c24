"""Seeded inputs of the four workloads, and the jobs that run them.

A workload is a pool of rounds drawn from the seed.  Every round holds the
same job kinds in the same order, so every run attempts whole rounds of the
same operations.  A job is one call into `mucsck.cli.main` with a config
written at set-up, or, for the two-route and flow energy jobs, one call
sequence into the public energy API.  Calls go through the module
attributes, so the tracing wrappers see them.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

import checks
import oracle

import mucsck.cli as cli
import mucsck.energy as energy
from mucsck.dh import TorusWeight
from mucsck.profiles import PolynomialProfile
from mucsck.surfaces import SurfaceSpec

CP1_UNIT = checks.CP1_UNIT
P2 = checks.P2

# continuation keeps |chi| * width in [0.3, 9]: below, the float branch is
# near the cancellation of FOUND (a); above 10 the solver switches to mpmath
FLOAT_BAND = (0.3, 9.0)
# certify_mp: strongly weighted roots with |chi| * width in [10.5, 11.5], just
# inside the mpmath branch (> 10), and near-degenerate roots on the blow-up of
# the plane with |chi| in [0.002, 0.009], inside the mpmath branch |chi| < 1e-2.
# Higher up, one ulp of chi moves the residual by more than RESIDUAL_TOL / 10,
# and roots on the unit line already fail certification now and then from
# |chi| * width = 13.9 (FOUND (b))
STRONG_BAND = (10.5, 11.5)
DEGENERATE_BAND = (0.002, 0.009)

PATH_POINTS = 12
ENERGY_T_GRID = [i / 3 for i in range(4)]


class Job:
    """One timed operation; `run` is timed, `result` and `check` are not."""

    kind = ""

    def prepare(self):
        pass

    def run(self):
        raise NotImplementedError

    def result(self, ret):
        return ret

    def check(self, out):
        raise NotImplementedError


class CliJob(Job):
    def __init__(self, command, cfg, fmt, workdir, index, check):
        self.kind = command
        self.cfg = cfg
        self.fmt = fmt
        self._check = check
        cfg_path = os.path.join(workdir, f"cfg-{index}.json")
        self.out_path = os.path.join(workdir, f"out-{command}.{fmt}")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.argv = [command, "--config", cfg_path, "--out", self.out_path,
                     "--format", fmt, "--quiet"]

    def prepare(self):
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

    def run(self):
        return cli.main(self.argv)

    def result(self, code):
        if code != 0:
            raise RuntimeError(f"{self.kind} exited {code}")
        with open(self.out_path, encoding="utf-8") as fh:
            if self.fmt == "json":
                return json.load(fh)
            return list(csv.DictReader(fh))

    def check(self, out):
        self._check(self.cfg, out)


class EnergyApiJob(Job):
    """A call sequence into the public energy API on the unit line."""

    def __init__(self, args):
        self.args = args
        self.spec = SurfaceSpec.cp1(args["m"])
        self.weight = TorusWeight(args["chi"])

    def profile(self, key):
        return PolynomialProfile(tuple(self.args[key]), (0.0, 2.0 * self.args["m"]))


class TwoRouteJob(EnergyApiJob):
    """Both energy routes on an admissible pair."""

    kind = "two_route"

    def __init__(self, args):
        super().__init__(args)
        self.p0, self.p1 = self.profile("p0"), self.profile("p1")

    def run(self):
        lam = self.args["lambda"]
        u0 = energy.potential_from_profile(self.p0, self.spec)
        u1 = energy.potential_from_profile(self.p1, self.spec)
        path = energy.muk_energy_path(self.spec, self.weight, lam, energy.GeodesicPath(u0, u1))
        chen_tian = energy.muk_energy_chen_tian(self.spec, self.weight, lam, u0, u1)
        return {"path": path, "chen_tian": chen_tian}

    def check(self, out):
        checks.check_two_route(out)


class FlowJob(EnergyApiJob):
    """The energy along the geodesic of a holomorphic flow from an admissible metric."""

    kind = "flow"

    def __init__(self, args):
        super().__init__(args)
        self.p0 = self.profile("p0")

    def run(self):
        u0 = energy.potential_from_profile(self.p0, self.spec)
        flow = energy.vector_field_path(u0, self.args["chi_dir"])
        return {"flow_slope": energy.muk_energy_path(self.spec, self.weight, self.args["lambda"],
                                                      flow)}

    def check(self, out):
        checks.check_flow(self.args, out)


# -- draws ---------------------------------------------------------------------------


class Strata:
    """n draws for one job slot of a pool; each parameter covers its range evenly.

    A parameter's n values are one per stratum of its range, jittered and
    shuffled by the seed, and a choice takes each option equally often.  Pools
    from different seeds then differ in pairings and jitter but hold the same
    mix of cheap and costly inputs, so a pass costs about the same on every seed.
    Iterating yields the strata positioned at draw 0, 1, ..., n - 1.
    """

    def __init__(self, rng, n):
        self.rng, self.n, self.i = rng, n, 0
        self._cols = {}

    def __iter__(self):
        for self.i in range(self.n):
            yield self

    def _col(self, name, make):
        if name not in self._cols:
            self._cols[name] = make()
        return self._cols[name][self.i]

    def u(self, name, lo, hi):
        frac = self._col(name, lambda: self.rng.permutation(
            (np.arange(self.n) + self.rng.random(self.n)) / self.n))
        return lo + (hi - lo) * float(frac)

    def pick(self, name, options):
        return options[int(self._col(name, lambda: self.rng.permutation(
            np.arange(self.n) % len(options))))]


def _ruled(s):
    """A ruled surface; m is never exactly 2, so never the blow-up of the plane."""
    return {"kind": "Ruled", "k": s.pick("k", (1, 2, 3)), "genus": s.pick("genus", (0, 1, 2)),
            "m": s.u("m", 0.5, 3.0)}


def _width(cfg):
    return 2.0 * cfg["m"] if cfg["kind"] == "CP1" else cfg["m"]


def _lambda_at(cfg, chi):
    closed = checks.closed_form_lambda(cfg, chi)
    if closed is not None:
        return float(closed(chi))
    return oracle.lambda_at(oracle.Surface.from_config(cfg), chi)


def _bracket(s, chi):
    lo, hi = chi * (1.0 - s.u("pad_lo", 0.02, 0.08)), chi * (1.0 + s.u("pad_hi", 0.02, 0.08))
    return [min(lo, hi), max(lo, hi)]


def _continuation_surface(s):
    """(surface, sign of chi): the unit line on either side, ruled surfaces at chi < 0.

    On ruled surfaces lam(chi) has a minimum at chi > 0, so two roots can share a
    bracket there; at chi < 0 it is monotone.
    """
    pick = s.pick("surface", ("line", "p2", "ruled"))
    if pick == "line":
        return CP1_UNIT, s.pick("sign", (1.0, -1.0))
    return (P2 if pick == "p2" else _ruled(s)), -1.0


def draw_path(s):
    """A lambda grid whose roots run across the float band, in either direction.

    On the line the grid is even in chi and starts at |chi| >= 0.8: a coarser
    start lets the warm-started bracket reach the trivial root chi = 0 first
    (FOUND in CHANGES.md).  Elsewhere the grid is even in lambda.
    """
    cfg, sign = _continuation_surface(s)
    w = _width(cfg)
    near_lo = 1.6 if cfg == CP1_UNIT else FLOAT_BAND[0]
    near, far = s.u("near", near_lo, 4.0) / w, s.u("far", 7.0, FLOAT_BAND[1]) / w
    if s.pick("outward", (True, False)):
        chi0, chi1 = sign * near, sign * far
    else:
        chi0, chi1 = sign * far, sign * near
    if cfg == CP1_UNIT:
        lams = [_lambda_at(cfg, c) for c in np.linspace(chi0, chi1, PATH_POINTS)]
    else:
        lams = np.linspace(_lambda_at(cfg, chi0), _lambda_at(cfg, chi1), PATH_POINTS)
    seed = [min(0.95 * chi0, 1.05 * chi0), max(0.95 * chi0, 1.05 * chi0)]
    return {"surface": cfg, "lambda_grid": [float(v) for v in lams], "seed_bracket": seed}


def draw_solve_float(s):
    cfg, sign = _continuation_surface(s)
    chi = sign * s.u("chi", *FLOAT_BAND) / _width(cfg)
    return {"surface": cfg, "lambda": _lambda_at(cfg, chi), "bracket": _bracket(s, chi)}


def draw_solve_strong(s, cfg):
    chi = s.u("chi", *STRONG_BAND) / _width(cfg)
    chi *= -1.0 if cfg == P2 else s.pick("sign", (1.0, -1.0))
    return {"surface": cfg, "lambda": _lambda_at(cfg, chi), "bracket": _bracket(s, chi)}


def draw_solve_degenerate(s):
    chi = -s.u("chi", *DEGENERATE_BAND)
    return {"surface": P2, "lambda": _lambda_at(P2, chi), "bracket": _bracket(s, chi)}


def draw_phase(s):
    m = s.u("m", 0.5, 3.0)
    fractions = [s.u("f0", 0.7, 0.9), s.u("f1", 0.92, 0.97), s.u("f2", 1.03, 1.08),
                 s.u("f3", 1.1, 1.3)]
    return {"surface": {"kind": "CP1", "m": m}, "lambda_grid": [4.0 / m * f for f in fractions]}


def draw_muvol(s, above):
    """CP1(m) samples and critical points, with lam * m below or above 4.

    lam * m stays 10% away from the threshold 4, where the side roots come
    close to chi = 0.  Above it find_critical refines two sign changes, so
    those jobs take about twice as long; each round has one below and three
    above, so the median job is always one above.
    """
    m = s.u("m", 0.5, 3.0)
    lam_m = s.u("lam_m", 4.4, 10.0) if above else s.u("lam_m", 2.0, 3.6)
    top = s.u("top", 1.0, 3.0) / m
    return {"surface": {"kind": "CP1", "m": m}, "lambda": lam_m / m,
            "chi_grid": [float(v) for v in np.linspace(-top, top, 21)]}


def draw_futaki(s):
    line = s.pick("line", (True, False))
    cfg = {"kind": "CP1", "m": s.u("m", 0.5, 3.0)} if line else _ruled(s)
    chi = s.pick("sign", (1.0, -1.0)) * s.u("chi", 0.2, 3.0) / _width(cfg)
    return {"surface": cfg, "lambda": s.u("lambda", -5.0, 8.0), "chi": chi,
            "chi_dir": s.pick("dir_sign", (1.0, -1.0)) * s.u("chi_dir", 0.3, 2.0)}


def draw_energy_perturbed(s):
    m = s.u("m", 0.75, 1.5)
    # FS + eps tau^2 (2m - tau)^2 = tau (2m - tau) (1/m + eps tau (2m - tau)) stays
    # positive for eps > -1/m^3
    eps = s.u("eps", -0.5, 0.5) / m ** 3
    return {"surface": {"kind": "CP1", "m": m}, "lambda": s.u("lambda", -2.0, 6.0),
            "chi": s.u("chi", -1.5, 1.5), "t_grid": ENERGY_T_GRID,
            "endpoint": {"kind": "perturbed", "eps": eps}}


def draw_energy_solved(s):
    end_chi = s.u("end_chi", 0.3, 3.5)
    return {"surface": CP1_UNIT, "lambda": s.u("lambda", -2.0, 6.0), "chi": s.u("chi", -1.5, 1.5),
            "t_grid": ENERGY_T_GRID,
            "endpoint": {"kind": "solve", "lambda": _lambda_at(CP1_UNIT, end_chi),
                         "bracket": [0.1, 5.0]}}


def admissible_profile(rng):
    """Fubini-Study on the unit line plus tau^2 (tau - 2)^2 q(tau), positive inside."""
    bump = np.polynomial.polynomial.polymul([0.0, 0.0, 1.0], [4.0, -4.0, 1.0])
    ts = np.linspace(0.0, 2.0, 801)[1:-1]
    while True:
        coeffs = np.zeros(7)
        coeffs[1], coeffs[2] = 2.0, -1.0
        extra = np.polynomial.polynomial.polymul(bump, rng.uniform(-0.06, 0.06, size=3))
        coeffs[: len(extra)] += extra
        if np.all(np.polynomial.polynomial.polyval(ts, coeffs) > 0.0):
            return [float(c) for c in coeffs]


def draw_two_route(s):
    return {"m": 1.0, "p0": admissible_profile(s.rng), "p1": admissible_profile(s.rng),
            "chi": s.u("chi", -1.5, 1.5), "lambda": s.u("lambda", -2.0, 6.0)}


def draw_flow(s):
    return {"m": 1.0, "p0": admissible_profile(s.rng), "chi": s.u("chi", -1.5, 1.5),
            "lambda": s.u("lambda", -2.0, 6.0),
            "chi_dir": s.pick("dir_sign", (1.0, -1.0)) * s.u("chi_dir", 0.3, 1.5)}


# -- workloads ------------------------------------------------------------------------


def _slots(rng, rounds, draw, per_round=1):
    """per_round draws for each of the rounds, as a list of per-round lists."""
    cfgs = [draw(s) for s in Strata(rng, rounds * per_round)]
    return [cfgs[i * per_round:(i + 1) * per_round] for i in range(rounds)]


def _critical_phase(rng, rounds, job):
    phase = _slots(rng, rounds, draw_phase)
    below = _slots(rng, rounds, lambda s: draw_muvol(s, False))
    above = _slots(rng, rounds, lambda s: draw_muvol(s, True), 3)
    futaki = _slots(rng, rounds, draw_futaki)
    return [[job("phase", p, "json", checks.check_phase) for p in phase[i]]
            + [job("muvol", c, "csv", checks.check_muvol) for c in below[i] + above[i]]
            + [job("futaki", f, "json", checks.check_futaki) for f in futaki[i]]
            for i in range(rounds)]


def _continuation(rng, rounds, job):
    paths = _slots(rng, rounds, draw_path, 2)
    solves = _slots(rng, rounds, draw_solve_float)
    return [[job("path", p, "csv", checks.check_path) for p in paths[i]]
            + [job("solve", c, "json", checks.check_solve) for c in solves[i]]
            for i in range(rounds)]


def _certify_mp(rng, rounds, job):
    slots = [
        _slots(rng, rounds, lambda s: draw_solve_strong(s, CP1_UNIT)),
        _slots(rng, rounds, lambda s: draw_solve_strong(s, P2)),
        _slots(rng, rounds, lambda s: draw_solve_strong(s, _ruled(s))),
        _slots(rng, rounds, draw_solve_degenerate),
    ]
    return [[job("solve", slot[i][0], "json", checks.check_solve) for slot in slots]
            for i in range(rounds)]


def _energy_trace(rng, rounds, job):
    perturbed = _slots(rng, rounds, draw_energy_perturbed)
    solved = _slots(rng, rounds, draw_energy_solved)
    pairs = _slots(rng, rounds, draw_two_route)
    flows = _slots(rng, rounds, draw_flow)
    return [[job("energy", perturbed[i][0], "csv", checks.check_energy),
             job("energy", solved[i][0], "csv", checks.check_energy),
             TwoRouteJob(pairs[i][0]), FlowJob(flows[i][0])] for i in range(rounds)]


# (pool builder, rounds in the pool); one pass over the pool takes about 20 s
WORKLOADS = {
    "critical_phase": (_critical_phase, 21),
    "continuation": (_continuation, 235),
    "certify_mp": (_certify_mp, 5),
    "energy_trace": (_energy_trace, 15),
}


def make_pool(name, seed, workdir):
    """The rounds of one workload, drawn from the seed; configs go to workdir."""
    build, rounds = WORKLOADS[name]
    counter = iter(range(10 ** 9))

    def job(command, cfg, fmt, check):
        return CliJob(command, cfg, fmt, workdir, next(counter), check)

    return build(np.random.default_rng(seed), rounds, job)
