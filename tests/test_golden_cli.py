"""Byte-for-byte regression of CLI outputs against checked-in golden files.

Each case runs one subcommand on a fixed config and compares the bytes it
writes with `tests/golden/<name>.<format>`.  The cases cover every
subcommand, and the solver on the float branch, on both extended-precision
windows (|chi|*width > 10 at chi > 0 and chi < 0 on the line and on a ruled
surface, and |chi| < 1e-2) and across the float -> mp switch along a path.
The mp solves pin the float form of extended-precision profiles in the
positivity certificate: a minimum at the top end of the scan, a ruled
surface's 1 - k tau != 1, and one and two inflections.

The golden files were written by the code before the closed-form profile
was unified, except:

* `energy_perturbed.csv`, rewritten when the energy grid became the dh rule
  with 64 uniform panels (1024 nodes, before 1120 with 4x-refined end
  panels), which moved 7 of its 13 values by at most 3.5e-17 absolute; and
  again when the energies on a time grid became one cumulative pass over the
  panels between consecutive times (M(0.25) kept its bits, M(0.5), M(0.75)
  and M(1) moved by 2.7e-18, 4.1e-18 and 1.0e-17, the second differences by
  at most 4.7e-18); and again when the path energies came from the
  endpoints' jets on the tau nodes in place of a Chebyshev series rebuilt
  at every t-node (M moved by at most 2.8e-17, each move toward the
  endpoint-entropy route, the second differences by at most 4.1e-18); and
  again when the energy averages became one normalized weight vector q @ f
  (M(0.25), M(0.5), M(0.75) and M(1) moved by -2.7e-19, -6.5e-19, -8.7e-19
  and -7.6e-19, the second differences by at most 3.3e-19; the two energy
  routes agree to 2.31e-16 on this config, 2.30e-16 before);
* `phase_cp1.json`, rewritten when the phase layer moved onto the cached
  obstruction curve: the origin at lambda = 4 became "muvol_max" (the
  closed form mu_vol = 2/m - x^4 / (45 m) + O(x^6) has a maximum there) and
  transition_lambda moved from 4.0000305 to 4.0000003 (4/m = 4);
* the five extended-precision cases (`solve_mp_wide*.json`,
  `solve_mp_small_chi.csv`, `path_float_to_mp.csv`), rewritten when those
  profiles came to be evaluated in floats from a Taylor or anchored
  exponential form instead of node by node in 40 digits (the 40-digit
  values are the oracle): in the three wide solves min_phi moved by at most
  1.35e-12 relative, the residual by at most 4.4e-16 and ode_sup_residual
  by at most 2.9e-14 absolute, and the inflection points by at most 1 ulp;
  the small-chi rows moved by at most 2.4e-15 relative; on the path the mp
  row moved chi by 4e-16 relative and the two float rows, which carry the
  float branch's 1e-8 residual noise, moved chi by 1.0e-8 and 9.7e-10
  relative, each toward `lambda_of_chi_p2blowup` (|lambda(chi) - lambda|
  5.2e-7 -> 9.0e-8, 4.6e-7 -> 4.1e-7, and 2.8e-14 -> 0 on the mp row).

To rewrite some of them after an intended output change (which must be
recorded with its size and oracle in CHANGES.md), name the cases; with no
name every case is rewritten.  Each file whose bytes changed is printed.

    PYTHONPATH=src python tests/test_golden_cli.py [NAME ...]
"""

import json
import sys
from pathlib import Path

import pytest

from mucsck.cli import main

GOLDEN = Path(__file__).parent / "golden"

CP1 = {"kind": "CP1", "m": 1.0}
P2_BLOWUP = {"kind": "Ruled", "k": 1, "genus": 0, "m": 2.0}
RULED_K2_G1 = {"kind": "Ruled", "k": 2, "genus": 1, "m": 1.0}

# name -> (command, format, config)
CASES = {
    "muvol_cp1": ("muvol", "csv", {"surface": CP1, "lambda": 5.0}),
    "futaki_p2_blowup": ("futaki", "json", {
        "surface": P2_BLOWUP, "lambda": 1.0, "chi": -0.5276195199, "chi_dir": 1.0}),
    "phase_cp1": ("phase", "json", {"surface": CP1, "lambda_grid": [3.5, 4.0, 4.5]}),
    "energy_perturbed": ("energy", "csv", {
        "surface": CP1, "lambda": 2.0, "chi": 0.5,
        "endpoint": {"kind": "perturbed", "eps": 0.05},
        "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0]}),
    "solve_float_json": ("solve", "json", {
        "surface": RULED_K2_G1, "lambda": 3.0, "bracket": [-4.0, -3.5]}),
    "solve_float_csv": ("solve", "csv", {
        "surface": RULED_K2_G1, "lambda": 3.0, "bracket": [-4.0, -3.5],
        "profile_points": 65}),
    # |chi|*width > 10: chi is about 5.9955 on an interval of width 2
    "solve_mp_wide": ("solve", "json", {
        "surface": {"kind": "CP1", "m": 1.0}, "lambda": 12.0, "bracket": [5.5, 6.5]}),
    # |chi|*width > 10 at chi < 0: chi is about -5.4906, the minimum of phi
    # sits at the top endpoint of the scan
    "solve_mp_wide_negative": ("solve", "json", {
        "surface": CP1, "lambda": 11.0, "bracket": [-5.8, -5.2]}),
    # |chi|*width > 10 on a ruled surface (1 - k tau != 1), with two
    # inflections: chi is about -7.2402
    "solve_mp_wide_ruled": ("solve", "json", {
        "surface": {"kind": "Ruled", "k": 2, "genus": 1, "m": 1.5}, "lambda": 5.0,
        "bracket": [-7.6, -7.0]}),
    # |chi| < 1e-2: chi is about -0.00878
    "solve_mp_small_chi": ("solve", "csv", {
        "surface": P2_BLOWUP, "lambda": -60.0, "bracket": [-0.02, -0.003],
        "profile_points": 33}),
    # the traced root crosses |chi| = 1e-2 between lambda = -50 and -60
    "path_float_to_mp": ("path", "csv", {
        "surface": P2_BLOWUP, "lambda_grid": [-40.0, -50.0, -60.0],
        "seed_bracket": [-0.02, -0.005]}),
}


def run_case(name, workdir: Path) -> bytes:
    command, fmt, cfg = CASES[name]
    cfg_path = workdir / f"{name}.cfg.json"
    out_path = workdir / f"{name}.{fmt}"
    cfg_path.write_text(json.dumps(cfg))
    code = main([command, "--config", str(cfg_path), "--out", str(out_path),
                 "--format", fmt, "--quiet"])
    assert code == 0, f"{name}: exit code {code}"
    return out_path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("MUCSCK_OUT_DIR", raising=False)
    fmt = CASES[name][1]
    expected = (GOLDEN / f"{name}.{fmt}").read_bytes()
    assert run_case(name, tmp_path) == expected


if __name__ == "__main__":
    import os
    import tempfile

    os.environ.pop("MUCSCK_OUT_DIR", None)
    GOLDEN.mkdir(exist_ok=True)
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown cases: {unknown}; known: {sorted(CASES)}")
    with tempfile.TemporaryDirectory() as tmp:
        for case in names:
            target = GOLDEN / f"{case}.{CASES[case][1]}"
            data = run_case(case, Path(tmp))
            if not target.exists() or target.read_bytes() != data:
                target.write_bytes(data)
                print(f"changed {target}", file=sys.stderr)
