"""Output checks, one per job kind.

Each check compares a job's output with computations from `oracle` (closed
forms, an extended-precision boundary solve made here) or with properties the
output must have.  None of them calls the program again.  A check raises
`Rejected` with the reason; a job whose check raises counts as failed.
"""

from __future__ import annotations

import math

import numpy as np

import oracle

# a reported root may sit this far (relative to max(1, |chi|)) from the true
# one; the program's root finders stop at 1e-12 to 1e-13, and a 1e-6 error
# must be caught
CHI_TOL = 1e-9
# constant curvature c of the solved metric, relative to max(1, |c|)
C_TOL = 1e-7
# dense grid on which a solved profile must be positive
POSITIVITY_POINTS = 2001
# absolute: mu_vol and its chi-derivative against the closed form, and the
# identities between the numbers of one futaki report, hold to 1e-13 here;
# an error of 1e-8 must be caught
VALUE_TOL = 1e-9
# the uniqueness threshold on the line is 4/m
TRANSITION_TOL = 1e-3
# energy: the two routes, convexity along a geodesic, slope along a flow
ROUTES_TOL = 1e-6
CONVEXITY_FLOOR = -1e-8
SLOPE_TOL = 1e-7
M0_TOL = 1e-12

CP1_UNIT = {"kind": "CP1", "m": 1.0}
P2 = {"kind": "Ruled", "k": 1, "genus": 0, "m": 2.0}


class Rejected(Exception):
    """A job's output failed its check."""


def _require(cond, msg):
    if not cond:
        raise Rejected(msg)


def _close(got, want, tol, what):
    _require(math.isfinite(got) and abs(got - want) <= tol,
             f"{what}: got {got!r}, expected {want!r}")


# -- solutions of the boundary problem ----------------------------------------------


def closed_form_lambda(surface_cfg, chi):
    """lam(.) in closed form near chi, where there is one, else None.

    The unit line has one for every chi, the blow-up of the plane for chi < 0.
    """
    if surface_cfg == CP1_UNIT:
        return oracle.cp1_lambda_of_chi
    if surface_cfg == P2 and chi < 0:
        return oracle.p2_lambda_of_chi
    return None


def check_solution(surface_cfg, lam, chi, c):
    """chi solves the boundary problem at lam, c matches, the profile is positive."""
    _require(chi is not None and math.isfinite(chi), f"no root at lam={lam}")
    surface = oracle.Surface.from_config(surface_cfg)
    closed = closed_form_lambda(surface_cfg, chi)
    if closed is not None:
        step = oracle.newton_step(lambda x: closed(x) - lam, chi)
    else:
        step = oracle.newton_step(lambda x: surface.residual(lam, x), chi)
    _require(abs(step) <= CHI_TOL * max(1.0, abs(chi)),
             f"chi={chi!r} is {step:.3g} from the root at lam={lam!r}")
    own_c, min_phi = surface.profile_check(lam, chi, POSITIVITY_POINTS)
    _close(c, own_c, C_TOL * max(1.0, abs(own_c)), f"c at lam={lam!r}")
    _require(min_phi > 0.0, f"profile not positive at lam={lam!r} (min {min_phi:.3g})")


def check_solve(cfg, blob):
    _require(blob["certified"] is True, f"not certified at lam={cfg['lambda']}")
    _require(blob["lambda"] == cfg["lambda"], "lambda not echoed")
    lo, hi = cfg["bracket"]
    _require(lo <= blob["chi"] <= hi, f"chi={blob['chi']} outside the bracket")
    check_solution(cfg["surface"], blob["lambda"], blob["chi"], blob["c"])


def check_path(cfg, rows):
    _require(len(rows) == len(cfg["lambda_grid"]), "one row per lambda")
    for row, lam in zip(rows, cfg["lambda_grid"]):
        _require(row["chi"] != "", f"gap at lam={lam}")
        _require(float(row["lambda"]) == lam, "lambda column")
        _require(row["positive"] == "1", f"not positive at lam={lam}")
        check_solution(cfg["surface"], lam, float(row["chi"]), float(row["c"]))


# -- the volume functional -------------------------------------------------------


def _check_critical(lam, chi, m):
    step = oracle.newton_step(lambda x: oracle.dmuvol_cp1(lam, x, m), chi)
    _require(abs(step) <= CHI_TOL * max(1.0, abs(chi)),
             f"critical chi={chi!r} is {step:.3g} from a zero at lam={lam!r}")


def _expected_count(lam, m):
    return 3 if lam * m > 4.0 else 1


def check_muvol(cfg, rows):
    m, lam = cfg["surface"]["m"], cfg["lambda"]
    samples = [r for r in rows if r["kind"] == "sample"]
    critical = [r for r in rows if r["kind"] == "critical"]
    _require([float(r["chi"]) for r in samples] == cfg["chi_grid"], "sample rows")
    _require(len(critical) == _expected_count(lam, m),
             f"{len(critical)} critical points at lam*m={lam * m}")
    for r in samples + critical:
        chi = float(r["chi"])
        _close(float(r["mu_vol"]), float(oracle.muvol_cp1(lam, chi, m)), VALUE_TOL,
               f"mu_vol at chi={chi}")
        _close(float(r["d_mu_vol"]), float(oracle.dmuvol_cp1(lam, chi, m)), VALUE_TOL,
               f"d_mu_vol at chi={chi}")
    for r in critical:
        _check_critical(lam, float(r["chi"]), m)


def check_phase(cfg, blob):
    m = cfg["surface"]["m"]
    grid = cfg["lambda_grid"]
    _require(blob["lambda_grid"] == grid, "lambda grid")
    transition = blob["transition_lambda"]
    _require(transition is not None and abs(transition - 4.0 / m) <= TRANSITION_TOL,
             f"transition {transition} against 4/m={4.0 / m}")
    for lam, count, row in zip(grid, blob["critical_counts"], blob["classifications"]):
        _require(count == _expected_count(lam, m) == len(row), f"count at lam={lam}")
        for entry in row:
            _check_critical(lam, entry["chi"], m)
            hess = oracle.d2muvol_cp1(lam, entry["chi"], m)
            want = "muvol_max" if hess > 0 else "muvol_min"
            _require(entry["kind"] == want, f"classification at lam={lam}")


def check_futaki(cfg, blob):
    lam, chi, chi_dir = cfg["lambda"], cfg["chi"], cfg["chi_dir"]
    surface = oracle.Surface.from_config(cfg["surface"])
    _require(blob["nu_self"] > 0.0, "nu_self must be positive")
    _close(blob["futaki_self"], blob["nu_self"] * (blob["lambda_xi"] - lam), VALUE_TOL,
           "futaki_self = nu_self (lambda_xi - lambda)")
    _close(blob["futaki_dir"], blob["futaki_self"] * chi_dir / chi, VALUE_TOL,
           "futaki is linear in the direction")
    _close(blob["log_vol"] - blob["sbar"], lam * float(oracle.log_mass(surface, chi)),
           VALUE_TOL, "log_vol - sbar = lambda log mass")


# -- the energy -------------------------------------------------------------------


def check_energy(cfg, rows):
    t = [float(r["t"]) for r in rows]
    vals = np.array([float(r["M_value"]) for r in rows])
    _require(t == cfg["t_grid"], "t column")
    _require(np.all(np.isfinite(vals)), "non-finite energy")
    _require(abs(vals[0]) <= M0_TOL, f"M(0) = {vals[0]!r}")
    second = np.diff(vals, 2)
    _require(float(np.min(second)) >= CONVEXITY_FLOOR,
             f"second difference {float(np.min(second))!r} along a geodesic")


def check_two_route(out):
    _close(out["chen_tian"], out["path"], ROUTES_TOL, "the two energy routes")


def check_flow(args, out):
    futaki = args["chi_dir"] * float(oracle.dmuvol_cp1(args["lambda"], args["chi"], args["m"]))
    _close(out["flow_slope"], -futaki, SLOPE_TOL * max(1.0, abs(futaki)),
           "slope along the flow = -futaki")
