"""Bit-for-bit regression of the functionals against `tests/golden/functionals.json`.

The CLI golden files cover only what the subcommands print.  This file pins
the functionals themselves on CP1(1), P(O(1)+O) and Ruled(2, 1, 1.5), each
with its reference profile, with a moment-map shift and with a perturbed
profile: log_vol, sbar, mu_vol, nu, futaki, d2_mu_vol, lambda_xi,
lambda_inf, W_check at kappa != 0, properness slopes and find_critical
roots, stored as hex floats and compared exactly.

The "phase" section pins the phase layer, which no CLI golden covers on a
ruled surface: lambda_freeze_estimate on one window per surface, and the
phase_diagram counts, roots, classifications and transition on a 7-point
lambda grid across the same window; it is compared exactly too.

The "closed_form" section holds C_functional, extremal_chi,
classical_futaki, lambda_hat(., ., 0) and W_check(., ., 0), which are closed
forms in the unweighted statistics; it is compared to 1e-14 absolute.

The golden file was written by the code before the functionals moved onto
one cached node table per context; its "phase" section was rewritten when
the phase layer read its classifications off the cached obstruction curve
(the cp1 origin at lambda = 4 became "muvol_max") and its transitions at the
curve level where the critical count changes (lambda_freeze and transition
moved by 5e-6 to 4.0e-5).  The "exact" and "phase" sections were rewritten
when every functional became an expression in the moments of one kernel
(`dh._end_moments`): 363 of 543 entries moved, the values by at most
4.3e-15 absolute, find_critical roots by at most 1.0e-13 and phase roots by
at most 2.0e-11 (the root at lambda = 30 on P(O(1)+O); the 40-digit
node-sum |F| there fell from 6.8e-13 to 3.6e-16), and the transitions
toward their closed forms or 40-digit levels (cp1: 4.000000266667439 ->
4.000000266666665, closed form 4.0000002666666692).  The "exact" and
"phase" sections were rewritten again when find_critical came to refine its
sign changes with `obstruction_root` (xtol one ulp at |chi| = 1e-6, was
1e-12): 23 of 36 find_critical roots moved, by at most 1.7e-14 absolute
(2.3e-15 relative), and 34 of 57 phase roots, by at most 2.2e-13 absolute
(3.3e-12 relative, the muvol_min root at lambda = 10.33 on P(O(1)+O)).
Against 40-digit roots (on CP1 the closed form behind
`oracles.muvol_cp1_derivative`, on the ruled surfaces the node-sum futaki of
`oracles.node_sum_functionals` on the context's rule and profile) the
largest relative error of a moved root fell from 3.3e-12 to 8.4e-15 (the
cp1_2.5 root at lambda = 1.67, chi = 0.315, 2.3e-15 before); nothing else
moved.  To rewrite it after
an intended output change (which must be recorded with its size in
CHANGES.md), run

    PYTHONPATH=src python tests/test_functionals_golden.py

The rewrite keeps every stored entry that the tests still accept (a
closed-form value within CLOSED_FORM_TOL of the stored one), so it moves
only the values that changed, and prints per section and functional family
how many entries moved and the largest move.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from mucsck.dh import TorusWeight
from mucsck.functionals import (
    C_functional,
    FunctionalContext,
    W_check,
    classical_futaki,
    d2_mu_vol,
    extremal_chi,
    find_critical,
    futaki,
    lambda_hat,
    lambda_inf,
    lambda_xi,
    log_vol,
    mu_vol,
    nu,
    properness_slope,
    sbar,
)
from mucsck.path import lambda_freeze_estimate, phase_diagram
from mucsck.surfaces import SurfaceSpec

GOLDEN = Path(__file__).parent / "golden" / "functionals.json"
CLOSED_FORM_TOL = 1e-14

SURFACES = {
    "cp1": SurfaceSpec.cp1(1.0),
    "p2_blowup": SurfaceSpec.p2_blowup(),
    "ruled_2_1_1.5": SurfaceSpec.ruled(2, 1, 1.5),
}
CHIS = (-1.3, 0.0, 0.7)
LAMBDAS = (0.0, 2.5)
DIR = TorusWeight(0.8)
# lambda windows in which the critical-point count changes
FREEZE_WINDOWS = {
    "cp1": (SurfaceSpec.cp1(1.0), (3.0, 5.0)),
    "cp1_2.5": (SurfaceSpec.cp1(2.5), (1.0, 2.0)),
    "p2_blowup": (SurfaceSpec.p2_blowup(), (0.5, 30.0)),
    "ruled_2_1_1.5": (SurfaceSpec.ruled(2, 1, 1.5), (3.0, 6.0)),
}


def contexts():
    for name, spec in SURFACES.items():
        ctx = FunctionalContext(spec)
        yield f"{name}/plain", ctx
        yield f"{name}/shifted", ctx.with_shift(0.25)
        yield f"{name}/perturbed", ctx.with_profile(spec.perturbed_profile(0.05))


def exact_values(ctx):
    out = {"lambda_inf": lambda_inf(ctx)}
    for chi in CHIS:
        w = TorusWeight(chi)
        out[f"nu/{chi}"] = nu(ctx, w, DIR)
        if chi != 0.0:
            out[f"lambda_xi/{chi}"] = lambda_xi(ctx, w)
        for lam in LAMBDAS:
            key = f"{chi}/{lam}"
            out[f"log_vol/{key}"] = log_vol(ctx, w, lam)
            out[f"sbar/{key}"] = sbar(ctx, w, lam)
            out[f"mu_vol/{key}"] = mu_vol(ctx, w, lam)
            out[f"futaki/{key}"] = futaki(ctx, w, DIR, lam)
            out[f"d2_mu_vol/{key}"] = d2_mu_vol(ctx, w, lam, DIR)
    for kappa in (0.5, -1.2):
        out[f"W_check/{kappa}"] = W_check(ctx, TorusWeight(0.9), kappa)
    for sign in (1.0, -1.0):
        slopes = properness_slope(ctx, TorusWeight(sign), 2.5, [1.0, 10.0, 100.0, 200.0])
        for t, s in zip((1, 10, 100, 200), slopes):
            out[f"properness/{sign}/{t}"] = s
    for lam in (2.5, 5.0):
        for i, root in enumerate(find_critical(ctx, lam)):
            out[f"find_critical/{lam}/{i}"] = root
    return out


def closed_form_values(ctx):
    out = {"extremal_chi": extremal_chi(ctx)}
    for chi in CHIS:
        out[f"C_functional/{chi}"] = C_functional(ctx, TorusWeight(chi))
        out[f"classical_futaki/{chi}"] = classical_futaki(ctx, TorusWeight(chi))
    for sign in (1, -1):
        out[f"lambda_hat/{sign}/0"] = lambda_hat(ctx, sign, 0.0)
    out["W_check/0"] = W_check(ctx, TorusWeight(0.9), 0.0)
    return out


def phase_values(spec, window):
    out = {"lambda_freeze": lambda_freeze_estimate(spec, window)}
    pd = phase_diagram(spec, np.linspace(window[0], window[1], 7))
    for lam, count, row in zip(pd.lambda_grid, pd.critical_counts, pd.classifications):
        out[f"count/{lam}"] = float(count)
        for i, (root, kind) in enumerate(row):
            out[f"root/{lam}/{i}/{kind}"] = root
    out["transition"] = pd.transition_lambda
    return out


def compute():
    out = {
        section: {name: {k: v.hex() for k, v in fn(ctx).items()} for name, ctx in contexts()}
        for section, fn in (("exact", exact_values), ("closed_form", closed_form_values))
    }
    out["phase"] = {
        name: {k: v.hex() for k, v in phase_values(spec, window).items()}
        for name, (spec, window) in FREEZE_WINDOWS.items()
    }
    return out


@pytest.fixture(scope="module")
def golden_and_now():
    return json.loads(GOLDEN.read_text()), compute()


def test_exact_functionals_match_golden_bits(golden_and_now):
    golden, now = golden_and_now
    assert now["exact"] == golden["exact"]


def test_phase_layer_matches_golden_bits(golden_and_now):
    golden, now = golden_and_now
    assert now["phase"] == golden["phase"]


def test_closed_forms_match_golden_to_rounding(golden_and_now):
    golden, now = golden_and_now
    for name, values in golden["closed_form"].items():
        assert set(now["closed_form"][name]) == set(values)
        for key, hexval in values.items():
            got = float.fromhex(now["closed_form"][name][key])
            expected = float.fromhex(hexval)
            assert got == pytest.approx(expected, rel=0, abs=CLOSED_FORM_TOL), (name, key)


def keep_accepted(golden, now):
    """`now`, with each closed-form entry the test still accepts kept as stored.

    The exact sections need no merge: an entry the test accepts is bit-equal.
    """
    for name, values in now["closed_form"].items():
        stored = golden.get("closed_form", {}).get(name, {})
        for key, hexval in values.items():
            old = stored.get(key)
            if old is not None and abs(float.fromhex(hexval) - float.fromhex(old)) <= CLOSED_FORM_TOL:
                values[key] = old
    return now


def moves(stored, now):
    """Per section and functional family (the key up to its first "/"): how
    many entries moved, how many there are, and the largest absolute and
    relative move."""
    out = {}
    for section, contexts in now.items():
        for name, values in contexts.items():
            old = stored.get(section, {}).get(name, {})
            for key, hexval in values.items():
                stat = out.setdefault((section, key.split("/")[0]), [0, 0, 0.0, 0.0])
                stat[1] += 1
                if key in old and old[key] != hexval:
                    a, b = float.fromhex(old[key]), float.fromhex(hexval)
                    stat[0] += 1
                    stat[2] = max(stat[2], abs(b - a))
                    stat[3] = max(stat[3], abs(b - a) / abs(a) if a else float("inf"))
    return out


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    out = keep_accepted(stored, compute())
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for (section, family), (moved, total, absolute, relative) in sorted(moves(stored, out).items()):
        print(f"{section}/{family}: {moved} of {total} moved, largest {absolute:.2g} "
              f"absolute, {relative:.2g} relative", file=sys.stderr)
    print(f"wrote {GOLDEN}", file=sys.stderr)
