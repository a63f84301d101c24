"""The obstruction's root finder: the Brent port, the batch-invariant kernel
rows it reads, and the lockstep refinement of trace, find_critical and
phase_diagram, each against the scalar path bit for bit."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

import mucsck.path
from mucsck.errors import BracketError, EvaluationError
from mucsck.functionals import (_RTOL, _XTOL, FunctionalContext, _brent, critical_brackets,
                                find_critical, obstruction_root, obstruction_roots)
from mucsck.path import phase_diagram, trace
from mucsck.surfaces import SurfaceSpec

from oracles import scalar_root_path


def port(f, lo, hi, calls):
    steps = _brent(lo, hi)
    x = next(steps)
    try:
        while True:
            calls.append(x)
            x = steps.send(f(x))
    except StopIteration as done:
        return done.value


def scalar_functions():
    rng = np.random.default_rng(23)
    out = []
    for _ in range(100):  # cubics, the bracket around the middle root
        r = np.sort(rng.uniform(-3.0, 3.0, 3))
        s = float(rng.choice([-1.0, 1.0]))
        out.append((lambda x, r=r, s=s: s * (x - r[0]) * (x - r[1]) * (x - r[2]),
                    r[1] - rng.uniform(0.05, 0.95) * (r[1] - r[0]),
                    r[1] + rng.uniform(0.05, 0.95) * (r[2] - r[1])))
    for _ in range(70):  # e^x - c
        c = math.exp(rng.uniform(-5.0, 5.0))
        out.append((lambda x, c=c: math.exp(x) - c,
                    math.log(c) - rng.uniform(0.0, 4.0), math.log(c) + rng.uniform(0.1, 4.0)))
    for _ in range(20):  # an exact zero at a bracket end
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.uniform(0.1, 2.0))
        ends = (a, b) if rng.random() < 0.5 else (b, a)
        out.append((lambda x, a=a: (x - a) * (1.0 + x * x), *ends))
    for _ in range(20):  # an exact zero at the first bisection point
        a = float(rng.integers(-4, 4))
        b = a + 2.0 ** int(rng.integers(1, 4))
        out.append((lambda x, m=(a + b) / 2: math.tanh(x - m), a, b))
    return out


def test_brent_port_is_brentq_bit_for_bit():
    functions = scalar_functions()
    assert len(functions) >= 200
    for f, lo, hi in functions:
        calls, ours = [], []
        want = brentq(lambda x: calls.append(x) or f(x), lo, hi, xtol=_XTOL, rtol=_RTOL)
        got = port(f, float(lo), float(hi), ours)
        assert got.hex() == want.hex(), (lo, hi)
        assert ours == calls  # the same iterates, in the same order


def test_brent_port_fails_where_brentq_does():
    step = lambda x: 1.0 if x > 0.3 else -1.0  # noqa: E731  bisects 1e300 down: > 100 steps
    with pytest.raises(RuntimeError):
        brentq(step, -1e300, 1e300, xtol=_XTOL, rtol=_RTOL)
    with pytest.raises(BracketError, match=r"^no root found on \[-1e\+300, 1e\+300\]"):
        port(step, -1e300, 1e300, [])
    with pytest.raises(BracketError, match="no sign change"):
        port(lambda x: x * x + 1.0, -1.0, 1.0, [])
    with pytest.raises(ValueError, match="NaN"):
        port(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0, [])


@pytest.mark.parametrize("spec", [SurfaceSpec.cp1(1.0), SurfaceSpec.cp1(2.7), SurfaceSpec.p2_blowup(),
                                  SurfaceSpec.ruled(3, 2, 0.7), SurfaceSpec.ruled(2, 1, 1.5)],
                         ids=["CP1(1)", "CP1(2.7)", "P(O(1)+O)", "Ruled(3,2,0.7)", "Ruled(2,1,1.5)"])
def test_a_one_side_row_is_the_one_chi_reading(spec):
    ctx = FunctionalContext(spec)
    rng = np.random.default_rng(7)
    for sign in (1.0, -1.0):
        for n in (1, 2, 3, 7, 16, 40):
            chis = sign * np.exp(rng.uniform(math.log(1e-3), math.log(30.0), n))
            batch = [np.broadcast_to(field, (n,)) for field in ctx._moments(chis)]
            for i, chi in enumerate(chis.tolist()):
                row = np.array([field[i] for field in batch])
                assert row.tobytes() == np.array(tuple(ctx._moments(chi))).tobytes(), (n, chi)


CP1 = SurfaceSpec.cp1(1.0)
# lambda above 4: each lambda has a sign change on either side of 0
BOTH_SIGNS = [4.5, 5.0, 6.0, 8.0]


def test_trace_find_critical_and_phase_equal_the_scalar_path():
    ctx = FunctionalContext(CP1)
    root, scalar_find_critical, scalar_trace = scalar_root_path(ctx)
    assert all(any(b[0] < 0 for b in critical_brackets(ctx, lam))
               and any(b[1] > 0 for b in critical_brackets(ctx, lam)) for lam in BOTH_SIGNS)
    want = [scalar_find_critical(lam) for lam in BOTH_SIGNS]
    assert [find_critical(ctx, lam) for lam in BOTH_SIGNS] == want
    assert [[c for c, _ in row] for row in phase_diagram(CP1, BOTH_SIGNS).classifications] == want
    for seed in ((0.1, 5.0), (-5.0, -0.1)):
        got = [p.chi for p in trace(CP1, BOTH_SIGNS, seed)]
        assert got == scalar_trace(BOTH_SIGNS, seed) and None not in got
    assert obstruction_root(ctx, 5.0, (0.5, 3.0)) == root(5.0, (0.5, 3.0))


def test_a_failed_bracket_fails_only_its_own_root():
    # the side with a chi whose weight underflows is read again one chi at a time
    ctx = FunctionalContext(CP1)
    problems = [(5.0, (0.5, 3.0)), (5.0, (-3.0, -0.5)), (5.0, (1e30, 1e31)), (5.0, (0.5, 0.6))]
    roots = obstruction_roots(ctx, problems)
    assert roots[:2] == [obstruction_root(ctx, 5.0, (0.5, 3.0)),
                         obstruction_root(ctx, 5.0, (-3.0, -0.5))]
    assert isinstance(roots[2], EvaluationError) and isinstance(roots[3], BracketError)


def test_a_failed_bracket_makes_only_its_point_a_gap(monkeypatch):
    # at lambda = 6 the curve's negative bracket is replaced by one without a
    # sign change; the trace on the negative branch loses that point only
    real = critical_brackets

    def broken(ctx, lam):
        brackets = real(ctx, lam)
        return [(b[0], b[0] * 0.999) if lam == 6.0 and b[1] < 0 else b for b in brackets]

    monkeypatch.setattr(mucsck.path, "critical_brackets", broken)
    points = trace(CP1, BOTH_SIGNS, (-5.0, -0.1))
    assert [p.ok for p in points] == [True, True, False, True]
    gap = points[2]
    assert gap.error.startswith("BracketError: the obstruction has no sign change on [")
    assert gap.to_row() == [6.0, None, None, None, None, None, None, 0]
    assert all(p.error is None for p in points if p.ok)
