import math
import warnings

import numpy as np
import pytest

from mucsck.dh import (
    DHMeasure,
    TorusWeight,
    barycenter,
    integrate_weighted,
    log_mass,
    moment,
    variance,
    weighted_average,
)
from mucsck.errors import EvaluationError

from oracles import trapezoid_weighted, unit_density_mass

SYM = DHMeasure(-math.pi, math.pi, (1.0,), 1.0)
RULED = DHMeasure(-2.0, 0.0, (1.0, -1.0), 2.0 * math.pi)


def test_exp_weight_closed_form():
    got = integrate_weighted(SYM, lambda t: np.ones_like(t), TorusWeight(-1.0))
    assert got == pytest.approx(2.0 * math.sinh(math.pi), rel=1e-13)


def test_exp_weight_against_trapezoid_oracle():
    got = integrate_weighted(SYM, lambda t: np.ones_like(t), TorusWeight(-1.0))
    oracle = trapezoid_weighted(-math.pi, math.pi, (1.0,), 1.0, lambda t: np.ones_like(t), -1.0)
    assert got == pytest.approx(oracle, rel=1e-10)


def test_unweighted_interval_length():
    got = integrate_weighted(SYM, lambda t: np.ones_like(t), TorusWeight(0.0))
    assert got == pytest.approx(2.0 * math.pi, rel=1e-14)


def test_ruled_measure_mass():
    got = integrate_weighted(RULED, lambda t: np.ones_like(t), TorusWeight(0.0))
    assert got == pytest.approx(2.0 * math.pi * 4.0, rel=1e-14)


def test_moment_odd_symmetric_vanishes():
    assert moment(SYM, TorusWeight(0.0), 1) == pytest.approx(0.0, abs=1e-13)


def test_moment_second_symmetric():
    assert moment(SYM, TorusWeight(0.0), 2) == pytest.approx(2.0 * math.pi ** 3 / 3.0, rel=1e-13)


def test_moment_weighted_integration_by_parts():
    # int tau e^{tau} dtau = (tau - 1) e^{tau}
    anti = lambda t: (t - 1.0) * math.exp(t)  # noqa: E731
    oracle = anti(math.pi) - anti(-math.pi)
    assert moment(SYM, TorusWeight(-1.0), 1) == pytest.approx(oracle, rel=1e-13)


def test_moment_order_validation():
    with pytest.raises(ValueError):
        moment(SYM, TorusWeight(0.0), 5)
    with pytest.raises(ValueError):
        moment(SYM, TorusWeight(0.0), 2.5)


def test_barycenter_symmetry():
    assert barycenter(SYM, TorusWeight(0.0)) == pytest.approx(0.0, abs=1e-14)


def test_barycenter_ruled_polynomial():
    assert barycenter(RULED, TorusWeight(0.0)) == pytest.approx(-7.0 / 6.0, rel=1e-13)


def test_barycenter_coth_identity():
    # weighted mean of tau on [-pi, pi] under e^{2 tau} is pi coth(2 pi) - 1/2
    got = barycenter(SYM, TorusWeight(-2.0))
    assert got == pytest.approx(math.pi / math.tanh(2.0 * math.pi) - 0.5, rel=1e-13)


def test_shift_covariance(rng):
    w = TorusWeight(0.7)
    f = lambda t: np.cos(t) + t ** 2  # noqa: E731
    base = integrate_weighted(RULED, f, w)
    for c in rng.uniform(-1.0, 1.0, size=8):
        moved = RULED.shifted(c)
        shifted_val = integrate_weighted(moved, lambda t: f(t - c), w)
        assert math.exp(w.chi * c) * shifted_val == pytest.approx(base, rel=1e-12)


# chi = +-64 puts |chi| * width at about 402, past the t = 200 properness scan
@pytest.mark.parametrize("chi", [1e-3, -1e-3, 0.3, -2.0, 7.0, -20.0, 20.0, -64.0, 64.0])
def test_closed_form_agreement_unit_density(chi):
    got = integrate_weighted(SYM, lambda t: np.ones_like(t), TorusWeight(chi))
    expect = unit_density_mass(-math.pi, math.pi, chi)
    assert got == pytest.approx(expect, rel=1e-12)


def test_chi_to_zero_continuity():
    f = lambda t: np.ones_like(t)  # noqa: E731
    at_eps = integrate_weighted(SYM, f, TorusWeight(1e-9))
    at_zero = integrate_weighted(SYM, f, TorusWeight(0.0))
    assert abs(at_eps - at_zero) <= 1e-7 * abs(at_zero)
    # the closed-form helper must take its Taylor branch there
    assert unit_density_mass(-math.pi, math.pi, 1e-9) == pytest.approx(at_eps, rel=1e-12)


def test_nonfinite_integrand_names_node():
    def bad(t):
        t = np.asarray(t, dtype=float)
        out = np.ones_like(t)
        out[t > 0.5] = np.nan
        return out

    with pytest.raises(EvaluationError) as err:
        integrate_weighted(SYM, bad, TorusWeight(0.0))
    assert err.value.node is not None and err.value.node > 0.5


def test_determinism():
    f = lambda t: np.exp(np.sin(3 * t))  # noqa: E731
    a = integrate_weighted(RULED, f, TorusWeight(1.3))
    b = integrate_weighted(RULED, f, TorusWeight(1.3))
    assert a == b


def test_weighted_average_extreme_exponent():
    # exponent spans ~400 e-folds; the shifted form must stay finite
    avg = weighted_average(DHMeasure(0.0, 2.0, (1.0,), 1.0), lambda t: t, TorusWeight(200.0))
    assert 0.0 < avg < 0.01
    lm = log_mass(DHMeasure(0.0, 2.0, (1.0,), 1.0), TorusWeight(200.0))
    assert lm == pytest.approx(math.log(1.0 / 200.0), rel=1e-6)


def test_integral_near_the_float_limit_is_finite():
    # e^{355 tau} on [0, 2] reaches e^{710}, past the float range, but its
    # integral (e^{710} - 1) / 355 does not; at chi = -400 the integral is
    # past the range too, and that is an error naming chi, not inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = math.log(integrate_weighted(DHMeasure(0.0, 2.0), 1.0, TorusWeight(-355.0)))
        assert got == pytest.approx(710.0 - math.log(355.0), rel=1e-13)
        assert log_mass(DHMeasure(0.0, 2.0), TorusWeight(-400.0)) == pytest.approx(
            800.0 - math.log(400.0), rel=1e-13)
        with pytest.raises(EvaluationError, match="chi=-400.0"):
            integrate_weighted(DHMeasure(0.0, 2.0), 1.0, TorusWeight(-400.0))


def test_helpers_read_one_row_of_the_moment_kernel(monkeypatch):
    import mucsck.dh as dh

    rows = []
    kernel = dh._end_moments
    monkeypatch.setattr(dh, "_end_moments",
                        lambda st, chis: rows.append(len(chis)) or kernel(st, chis))
    w = TorusWeight(0.7)
    integrate_weighted(RULED, np.cos, w)
    log_mass(RULED, w)
    weighted_average(RULED, np.cos, w)
    assert rows == [1, 1, 1]


def test_a_helper_call_builds_the_peak_end_stack_only(monkeypatch):
    # one chi reads one end of the interval, so a helper call builds that
    # end's stack and no other
    import mucsck.dh as dh

    built = []
    stacks = dh._end_stacks
    monkeypatch.setattr(dh, "_end_stacks", lambda *a: built.append(stacks(*a)) or built[-1])
    for chi in (0.7, -0.7):
        weighted_average(RULED, np.cos, TorusWeight(chi))
    assert [[end is not None for end in b[1]] for b in built] == [[True, False], [False, True]]


def test_variance_uniform():
    assert variance(DHMeasure(0.0, 2.0, (1.0,), 1.0), TorusWeight(0.0)) == pytest.approx(
        1.0 / 3.0, rel=1e-12
    )


def test_measure_validation():
    with pytest.raises(ValueError):
        DHMeasure(1.0, 1.0)
    with pytest.raises(ValueError):
        DHMeasure(0.0, 1.0, (1.0,), 0.0)
    with pytest.raises(ValueError):
        DHMeasure(-2.0, 2.0, (1.0, -1.0))  # density 1 - tau <= 0 past tau = 1
    with pytest.raises(ValueError):
        DHMeasure(0.0, 1.0, (0.0,))
