import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mucsck.cli as cli
from mucsck.cli import main
from mucsck.dh import TorusWeight
from mucsck.errors import ConfigError
from mucsck.io import _fmt17
from mucsck.surfaces import SurfaceSpec


def run(tmp_path, command, cfg, fmt="csv", name="out"):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / f"{name}.{fmt}"
    cfg_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(cfg_path), "--out", str(out_path),
                 "--format", fmt, "--quiet"])
    return code, out_path


CP1 = {"kind": "CP1", "m": 1.0}
RULED = {"kind": "Ruled", "k": 1, "genus": 0, "m": 2.0}


def test_muvol_three_critical_rows(tmp_path):
    code, out = run(tmp_path, "muvol", {"surface": CP1, "lambda": 5.0,
                                        "chi_grid": [-2.0, 0.0, 2.0]})
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    crit = [r for r in rows if r["kind"] == "critical"]
    assert len(crit) == 3


def test_muvol_single_critical_below_threshold(tmp_path):
    code, out = run(tmp_path, "muvol", {"surface": CP1, "lambda": 3.0,
                                        "chi_grid": [-2.0, 0.0, 2.0]})
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    crit = [r for r in rows if r["kind"] == "critical"]
    assert len(crit) == 1
    assert float(crit[0]["chi"]) == 0.0


def test_malformed_grid_exits_2(tmp_path):
    code, _ = run(tmp_path, "muvol", {"surface": CP1, "lambda": 5.0,
                                      "chi_grid": [0.0, 1.0, 0.5]})
    assert code == 2


def test_unknown_key_rejected(tmp_path):
    code, _ = run(tmp_path, "muvol", {"surface": CP1, "lambda": 5.0, "bogus": 1})
    assert code == 2


def test_solve_json_roundtrip(tmp_path):
    cfg = {"surface": RULED, "lambda": 0.0, "bracket": [-0.5, -0.1]}
    code, out = run(tmp_path, "solve", cfg, fmt="json")
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["certified"] is True
    assert blob["chi"] == pytest.approx(-0.26487887364855, abs=1e-9)
    # every emitted JSON re-parses into an equal value
    assert json.loads(json.dumps(blob)) == blob


def test_solve_profile_csv(tmp_path):
    cfg = {"surface": CP1, "lambda": 5.0, "bracket": [0.1, 5.0], "profile_points": 64}
    code, out = run(tmp_path, "solve", cfg, fmt="csv")
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 64
    assert set(rows[0]) == {"tau", "phi", "dphi", "s_mu"}
    smu = [float(r["s_mu"]) for r in rows]
    assert max(smu) - min(smu) <= 1e-8  # constant weighted curvature


def test_solve_no_root_exits_3(tmp_path):
    cfg = {"surface": CP1, "lambda": 3.0, "bracket": [0.1, 5.0]}
    code, _ = run(tmp_path, "solve", cfg, fmt="json")
    assert code == 3


def test_solve_degenerate_bracket_off_the_root_exits_3(tmp_path, capsys):
    # [x, x] brackets a root only where F(x) = 0; at chi = 1, lam = 5 it does not
    cfg = {"surface": CP1, "lambda": 5.0, "bracket": [1.0, 1.0]}
    code, out = run(tmp_path, "solve", cfg, fmt="json")
    assert code == 3 and not out.exists()
    assert "no sign change" in capsys.readouterr().err


def test_path_soliton_row(tmp_path):
    cfg = {"surface": RULED, "lambda_grid": [1.0], "seed_bracket": [-1.0, -0.1]}
    code, out = run(tmp_path, "path", cfg)
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 1
    assert float(rows[0]["chi"]) == pytest.approx(-0.5276195198969573, abs=1e-8)
    assert rows[0]["positive"] == "1"


def test_phase_transition_near_threshold(tmp_path):
    cfg = {"surface": CP1, "lambda_grid": [3.5, 4.5]}
    code, out = run(tmp_path, "phase", cfg, fmt="json")
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["critical_counts"] == [1, 3]
    assert abs(blob["transition_lambda"] - 4.0) <= 1e-3


def test_energy_constant_path_zero(tmp_path):
    cfg = {"surface": CP1, "lambda": 2.0, "chi": 0.5,
           "endpoint": {"kind": "fs"}, "t_grid": [0.0, 0.5, 1.0, 1e20]}
    code, out = run(tmp_path, "energy", cfg)
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert all(float(r["M_value"]) == 0.0 for r in rows)


PERTURBED_ENERGY = {"surface": CP1, "lambda": 2.0, "chi": 0.5,
                    "endpoint": {"kind": "perturbed", "eps": 0.05}}


def test_energy_grid_is_one_cumulative_pass(tmp_path, monkeypatch):
    # t = 0 costs nothing and each of the three panels takes the 32-node rule;
    # restarting from t = 0 at every time would take 4 x 32 = 128 evaluations
    import mucsck.energy as energy

    calls = []
    inner = energy._inner_product
    monkeypatch.setattr(energy, "_inner_product", lambda *a: calls.append(a) or inner(*a))
    cfg = dict(PERTURBED_ENERGY, t_grid=[0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    code, _ = run(tmp_path, "energy", cfg)
    assert code == 0
    assert len(calls) == 96


def test_energy_jets_do_not_grow_with_the_grid(tmp_path, monkeypatch):
    # U_t is affine in t: U'' is evaluated on the tau nodes once per endpoint,
    # whether the grid has 2 times or 21
    import mucsck.energy as energy

    nodes = energy._weight_data(SurfaceSpec.cp1(1.0), TorusWeight(0.5))[0]
    d2 = energy.SymplecticPotential.d2
    counts = {}
    for name, grid in (("two", [0.0, 1.0]), ("many", np.linspace(0.0, 1.0, 21).tolist())):
        on_nodes = []
        monkeypatch.setattr(energy.SymplecticPotential, "d2",
                            lambda self, t: on_nodes.append(np.array_equal(t, nodes)) or d2(self, t))
        code, _ = run(tmp_path, "energy", dict(PERTURBED_ENERGY, t_grid=grid), name=name)
        assert code == 0
        counts[name] = sum(on_nodes)
    assert counts["two"] == counts["many"] > 0


def test_energy_decreasing_grid_reverses_rows(tmp_path):
    ts = [0.0, 0.2, 0.45, 0.7, 1.0]
    rows = {}
    for name, grid in (("up", ts), ("down", ts[::-1])):
        code, out = run(tmp_path, "energy", dict(PERTURBED_ENERGY, t_grid=grid), name=name)
        assert code == 0
        rows[name] = out.read_text().splitlines()
    assert rows["down"][0] == rows["up"][0]
    assert rows["down"][1:] == rows["up"][1:][::-1]


def test_energy_solve_endpoint(tmp_path):
    cfg = {"surface": CP1, "lambda": 5.0, "chi": 1.9175326869,
           "endpoint": {"kind": "solve", "lambda": 5.0, "bracket": [0.1, 5.0]},
           "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0]}
    code, out = run(tmp_path, "energy", cfg)
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 5
    second = [r["second_difference"] for r in rows]
    assert second[0] == "" and second[-1] == ""


def test_futaki_json(tmp_path):
    cfg = {"surface": RULED, "lambda": 1.0, "chi": -0.5276195199, "chi_dir": 1.0}
    code, out = run(tmp_path, "futaki", cfg, fmt="json")
    assert code == 0
    blob = json.loads(out.read_text())
    assert abs(blob["futaki_dir"]) <= 1e-8  # soliton weight is critical
    assert blob["nu_self"] > 0.0


def test_futaki_reads_the_kernel_once(tmp_path, monkeypatch):
    import mucsck.functionals as fn

    calls = []
    kernel = fn._end_moments
    monkeypatch.setattr(fn, "_end_moments", lambda *a: calls.append(a) or kernel(*a))
    cfg = {"surface": RULED, "lambda": 1.0, "chi": -0.5276195199, "chi_dir": 2.0}
    code, out = run(tmp_path, "futaki", cfg, fmt="json")
    assert code == 0 and len(calls) == 1
    blob = json.loads(out.read_text())
    assert blob["futaki_dir"] == pytest.approx(2.0 * blob["futaki_self"] / blob["chi"], rel=1e-14)


def test_byte_identical_reruns(tmp_path):
    cfg = {"surface": CP1, "lambda": 5.0, "chi_grid": [-1.0, 0.0, 1.0]}
    _, out1 = run(tmp_path, "muvol", cfg, name="a")
    _, out2 = run(tmp_path, "muvol", cfg, name="b")
    assert out1.read_bytes() == out2.read_bytes()


def test_out_dir_override(tmp_path, monkeypatch):
    override = tmp_path / "elsewhere"
    override.mkdir()
    monkeypatch.setenv("MUCSCK_OUT_DIR", str(override))
    cfg = {"surface": CP1, "lambda": 3.0, "chi_grid": [-1.0, 1.0]}
    code, out = run(tmp_path, "muvol", cfg)
    assert code == 0
    assert not out.exists()
    assert (override / out.name).exists()


def test_fmt17_roundtrip():
    import math

    for x in (math.pi, 1.0 / 3.0, 2.0 ** -52, -1.2345678901234567e300):
        assert float(_fmt17(x)) == x


def test_missing_surface_exits_2(tmp_path):
    code, _ = run(tmp_path, "muvol", {"lambda": 3.0})
    assert code == 2


def test_bad_format_exits_2(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"surface": CP1}))
    code = main(["muvol", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert code == 0 or code == 2  # default format csv is fine
    code = main(["muvol", "--config", "/nonexistent/cfg.json", "--out", "x"])
    assert code == 2


def test_solve_json_reports_vector_coefficient(tmp_path):
    import math

    cfg = {"surface": CP1, "lambda": 5.0, "bracket": [0.1, 5.0]}
    code, out = run(tmp_path, "solve", cfg, fmt="json")
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["x"] == pytest.approx(blob["chi"] / (2.0 * math.pi), rel=1e-12)


def test_energy_negative_time_rejected(tmp_path):
    cfg = {"surface": CP1, "lambda": 1.0, "chi": 0.0,
           "endpoint": {"kind": "fs"}, "t_grid": [-0.5, 0.0, 0.5]}
    code, _ = run(tmp_path, "energy", cfg)
    assert code == 2


def test_energy_endpoint_must_be_object(tmp_path, capsys):
    cfg = {"surface": CP1, "lambda": 1.0, "chi": 0.5, "endpoint": "fs"}
    code, _ = run(tmp_path, "energy", cfg)
    assert code == 2
    assert "endpoint must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("solve", {"surface": CP1, "lambda": float("nan"), "bracket": [0.1, 5.0]}),
    ("solve", {"surface": CP1, "lambda": 5.0, "bracket": [0.1, float("inf")]}),
    ("path", {"surface": RULED, "lambda_grid": [1.0], "seed_bracket": [float("-inf"), -0.1]}),
    ("muvol", {"surface": CP1, "lambda": 5.0, "chi_grid": [-1.0, float("nan"), 1.0]}),
    ("futaki", {"surface": RULED, "lambda": 1.0, "chi": float("nan")}),
    ("energy", {"surface": CP1, "lambda": 1.0, "chi": 0.5,
                "endpoint": {"kind": "perturbed", "eps": float("nan")}}),
])
def test_non_finite_number_exits_2(tmp_path, capsys, command, cfg):
    # json writes and reads NaN and Infinity; the CLI rejects them as config errors
    code, _ = run(tmp_path, command, cfg, fmt="json")
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_infinite_integer_values_exit_2(tmp_path):
    cfg = {"surface": {"kind": "Ruled", "k": float("inf")}, "lambda": 1.0}
    code, _ = run(tmp_path, "futaki", cfg, fmt="json")
    assert code == 2
    cfg = {"surface": CP1, "lambda": 5.0, "bracket": [0.1, 5.0], "profile_points": float("inf")}
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 2


def test_solve_bracket_too_wide_for_brentq_exits_3(tmp_path):
    # bisecting [-1.8e28, 1] down to xtol takes more than brentq's 100 steps;
    # found by test_command_block_exits_with_a_code, it used to raise RuntimeError
    cfg = {"surface": CP1, "bracket": [-1.8299415294801867e+28, 1.0]}
    code, out = run(tmp_path, "solve", cfg, fmt="json")
    assert code == 3 and not out.exists()


@pytest.mark.parametrize("command, cfg", [
    ("futaki", {"surface": CP1, "lambda": -1.4926946250714803e+308, "chi": 0.0, "chi_dir": 0.0}),
    ("muvol", {"surface": CP1, "lambda": 1.7976931348623157e+308}),
])
def test_values_past_the_float_range_exit_3(tmp_path, capsys, command, cfg):
    # log Vol overflows: one stderr line, no RuntimeWarning and no inf in the output
    code, out = run(tmp_path, command, cfg, fmt="json")
    assert code == 3 and not out.exists()
    assert "leaves the float range" in capsys.readouterr().err


def test_a_curvature_past_the_float_range_is_a_gap_with_its_error():
    from mucsck.path import trace
    from mucsck.surfaces import SurfaceSpec

    point, = trace(SurfaceSpec.ruled(1, 0, 2.0), [-1e300], (-285001.0, 872544.0))
    assert not point.ok
    assert point.error.startswith("EvaluationError: the weighted curvature leaves the float range")


@pytest.mark.parametrize("command, cfg", [
    ("solve", {"surface": CP1, "lambda": "abc", "bracket": [0.1, 5.0]}),
    ("futaki", {"surface": CP1, "lambda": [1], "chi": 0.5}),
    ("energy", {"surface": CP1, "lambda": 1.0, "chi": 0.5,
                "endpoint": {"kind": "perturbed", "eps": -5.0}}),
    ("energy", {"surface": RULED, "lambda": 1.0, "chi": 0.5}),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg):
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [ValueError("f(a) and f(b) must have different signs"),
                                 np.linalg.LinAlgError("Singular matrix")])
def test_numerical_value_error_exits_3(tmp_path, capsys, monkeypatch, exc):
    # a ValueError from the numerics is a numerical failure, not a config error
    def failing_solve(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "solve_chi", failing_solve)
    code, _ = run(tmp_path, "solve", {"surface": CP1, "lambda": 5.0, "bracket": [0.1, 5.0]})
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("endpoint", ["fs", "perturbed"])
@pytest.mark.parametrize("m", [1e-300, 1e300])
def test_non_finite_output_exits_3_without_a_file(tmp_path, capsys, m, endpoint, fmt):
    # M(1) is NaN on these lines; CSV would show nan and JSON NaN, which is not JSON
    cfg = {"surface": {"kind": "CP1", "m": m}, "t_grid": [0.0, 1.0],
           "endpoint": {"kind": endpoint}}
    code, out = run(tmp_path, "energy", cfg, fmt=fmt)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg, quantity", [
    ({"surface": {"kind": "CP1", "m": 1e-300}, "endpoint": {"kind": "fs"}}, "U''"),
    ({"surface": {"kind": "CP1", "m": 1e-300}, "endpoint": {"kind": "perturbed"}}, "U''"),
    ({"surface": {"kind": "CP1", "m": 1e300}, "endpoint": {"kind": "fs"}}, "path energy"),
    ({"surface": {"kind": "CP1", "m": 1e300}, "endpoint": {"kind": "perturbed"}}, "profile"),
    ({"surface": CP1, "lambda": 1.0, "chi": 1e300}, "chi"),
], ids=["tiny-m-fs", "tiny-m-perturbed", "huge-m-fs", "huge-m-perturbed", "huge-chi"])
def test_energy_on_extreme_input_fails_in_one_line(tmp_path, capsys, cfg, quantity):
    # one stderr line that names what is not finite, and no numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "energy", dict(cfg, t_grid=[0.0, 1.0]))
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure") and quantity in err[0]


@pytest.mark.parametrize("command, cfg", [
    ("muvol", {"surface": CP1, "lambda": 1.0, "chi_grid": [1e300]}),
    ("futaki", {"surface": CP1, "lambda": 1.0, "chi": 1e300}),
    ("energy", {"surface": CP1, "lambda": 1.0, "chi": 1e300}),
    ("muvol", {"surface": {"kind": "CP1", "m": 1e300}, "lambda": 1.0}),
    ("futaki", {"surface": {"kind": "Ruled", "k": 1, "genus": 0, "m": 1e300}, "lambda": 1.0,
                "chi": 0.5}),
])
def test_finite_extreme_input_exits_3(tmp_path, capsys, command, cfg):
    # overflow and division by zero on finite input are numerical failures
    code, _ = run(tmp_path, command, cfg)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_futaki_on_extreme_input_fails_in_one_line(tmp_path, capsys):
    # chi ** 2 leaves the float range while chi * width does not
    cfg = {"surface": {"kind": "CP1", "m": 1e-160}, "chi": 1e160}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "futaki", cfg, fmt="json")
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure") and "chi=" in err[0]


@pytest.mark.parametrize("cfg", [
    {"surface": CP1, "lambda": 1.0, "chi": 5e-324},
    {"surface": RULED, "lambda": 1.0, "chi": 1e-310},
], ids=["cp1", "ruled"])
def test_lambda_xi_at_subnormal_chi_exits_3(tmp_path, capsys, cfg):
    # chi var(tau) underflows (to 0 on the line, to a subnormal on the ruled
    # surface): an error naming lambda_xi, not a numpy warning and an inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out = run(tmp_path, "futaki", cfg, fmt="json")
    assert code == 3 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "lambda_xi" in err[0] and "RuntimeWarning" not in err[0]


def test_profile_points_bounded_before_the_solve(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved an over-long profile request")

    monkeypatch.setattr(cli, "solve_chi", no_solve)
    cfg = {"surface": CP1, "lambda": 5.0, "bracket": [0.1, 5.0], "profile_points": 10002}
    code, _ = run(tmp_path, "solve", cfg)
    assert code == 2
    assert "profile_points must be in [1, 10001]" in capsys.readouterr().err
    monkeypatch.undo()
    code, out = run(tmp_path, "solve", dict(cfg, profile_points=10001))
    assert code == 0
    assert len(out.read_text().splitlines()) == 10002


@pytest.mark.parametrize("command, cfg", [
    ("futaki", {"surface": {"kind": "Ruled", "k": 1.5}, "lambda": 1.0}),
    ("futaki", {"surface": {"kind": "Ruled", "genus": 1.9}, "lambda": 1.0}),
    ("futaki", {"surface": {"kind": "Ruled", "k": "2"}, "lambda": 1.0}),
    ("futaki", {"surface": {"kind": "Ruled", "k": True}, "lambda": 1.0}),
    ("futaki", {"surface": {"kind": "CP1", "m": "2"}, "lambda": 1.0}),
    ("futaki", {"surface": {"kind": "CP1", "m": 1.0, "k": 2}, "lambda": 1.0}),
    ("futaki", {"surface": {"kind": "CP1", "m": 1.0, "genus": 0}, "lambda": 1.0}),
    ("futaki", {"surface": CP1, "lambda": "5"}),
    ("futaki", {"surface": CP1, "lambda": True}),
    ("solve", {"surface": CP1, "lambda": "5", "bracket": [0.1, 5.0]}),
    ("solve", {"surface": CP1, "lambda": True, "bracket": [0.1, 5.0]}),
    ("solve", {"surface": CP1, "lambda": 5.0, "bracket": [0.1, 5.0], "profile_points": 2.7}),
])
def test_config_type_contract_exits_2(tmp_path, capsys, command, cfg):
    # numbers must be JSON numbers, integers must be integral, CP1 has no k or genus
    code, _ = run(tmp_path, command, cfg)
    assert code == 2
    assert "config error" in capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["CP1", "Ruled"]) | _JSON_VALUES,
       params=st.dictionaries(st.sampled_from(["m", "k", "genus", "extra"]), _JSON_VALUES))
def test_surface_block_parses_or_raises_config_error(kind, params):
    try:
        spec = cli.parse_surface(dict(params, kind=kind))
    except ConfigError:
        return
    assert isinstance(spec, SurfaceSpec)


_NUMBERS = (st.integers() | st.floats()
            | st.sampled_from([0.0, 1.0, 1e3, -1e3, 1e300, -1e300, 10 ** 400]))
_ENDPOINTS = (
    st.fixed_dictionaries({"kind": st.just("fs")})
    | st.fixed_dictionaries({"kind": st.just("perturbed")}, optional={"eps": _NUMBERS | _JSON_VALUES})
    | st.fixed_dictionaries({"kind": st.just("solve")},
                            optional={"lambda": _NUMBERS | _JSON_VALUES,
                                      "bracket": st.lists(_NUMBERS, min_size=2, max_size=2) | _JSON_VALUES,
                                      "extra": _JSON_VALUES})
    | _JSON_VALUES
)


# a key of a command block draws any JSON value, or most often a value of the
# key's own shape, with moderate numbers common enough to reach the numerics;
# grids hold at most four entries, so that path and solve stay cheap.
# Energy's t_grid and endpoint keep their own strategies.
_SCALARS = st.floats(-10.0, 10.0) | _NUMBERS
_GRIDS = st.lists(_SCALARS, max_size=4).map(sorted) | _JSON_VALUES
_BRACKETS = st.lists(_SCALARS, min_size=2, max_size=2).map(sorted) | _JSON_VALUES
_KEY_VALUES = {
    "chi_grid": _GRIDS,
    "lambda_grid": _GRIDS,
    "bracket": _BRACKETS,
    "seed_bracket": _BRACKETS,
    "t_grid": st.lists(_NUMBERS, max_size=5) | _JSON_VALUES,
    "endpoint": _ENDPOINTS,
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_command_block_exits_with_a_code(tmp_path_factory, command):
    # any JSON in a command's block ends as a result, a config error or a
    # numerical failure, never as a traceback
    keys = sorted(cli.COMMANDS[command][1])
    block = st.fixed_dictionaries(
        {}, optional={key: _KEY_VALUES.get(key, _SCALARS | _JSON_VALUES) for key in keys})
    # energy is implemented on the line only
    surface = st.just(CP1) if command == "energy" else st.sampled_from([CP1, RULED])

    @settings(max_examples=60, deadline=None)
    @given(block=block, surface=surface)
    def check(block, surface):
        code, _ = run(tmp_path_factory.mktemp(command), command, dict(block, surface=surface))
        assert code in (0, 2, 3)

    check()
