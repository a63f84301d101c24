"""Command-line surface: one JSON config per run, deterministic outputs.

Subcommands: muvol, solve, path, energy, phase, futaki.  `COMMANDS` is the
one table of them: name -> (handler, the config keys it takes besides
surface and output).  A handler parses its block and computes; it returns
its CSV header and rows, a JSON payload (None: one JSON object per row) and
its stdout line, in which {path} stands for the output file.  `main` writes
that one file and prints the line.
Exit codes: 0 success, 2 config error, 3 numerical failure.  A non-finite
number in the output is a numerical failure, and no file is written then.
The only honored environment variable is MUCSCK_OUT_DIR (output directory
override); everything else lives in the config for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .dh import TorusWeight
from .errors import ConfigError, MucsckError
from .functionals import FunctionalContext, d_mu_vol, find_critical, mu_vol, vol_report
from .io import profile_rows, write_csv, write_json
from .path import phase_diagram, trace
from .solver import SCAN_POINTS, solve_chi
from .surfaces import CP1, RULED, SurfaceSpec


def _check_keys(blob: dict, allowed, where: str):
    unknown = set(blob) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _finite(value, where: str) -> float:
    """A config number as a float: a JSON number (not a bool or a string), and
    finite; json accepts NaN and Infinity, the CLI does not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    val = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not math.isfinite(val):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return val


def _integer(value, where: str) -> int:
    """A config integer: a finite JSON number without a fractional part."""
    if not _finite(value, where).is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _pair(value, where: str) -> tuple:
    """A [lo, hi] config block as two finite floats."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{where} must be [lo, hi], got {value!r}")
    return tuple(_finite(v, where) for v in value)


def _monotone(grid, where: str):
    if not isinstance(grid, (list, tuple)):
        raise ConfigError(f"{where} must be a list")
    grid = [_finite(g, where) for g in grid]
    if len(grid) == 0:
        raise ConfigError(f"{where} must be nonempty")
    diffs = np.diff(grid)
    if len(diffs) and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError(f"{where} must be strictly monotone")
    return grid


def parse_surface(blob) -> SurfaceSpec:
    if not isinstance(blob, dict):
        raise ConfigError("surface must be an object")
    kind = blob.get("kind")
    _check_keys(blob, {"kind", "m", "k", "genus"} if kind == RULED else {"kind", "m"}, "surface")
    try:
        if kind == CP1:
            return SurfaceSpec.cp1(_finite(blob.get("m", 1.0), "surface.m"))
        if kind == RULED:
            return SurfaceSpec.ruled(_integer(blob.get("k", 1), "surface.k"),
                                     _integer(blob.get("genus", 0), "surface.genus"),
                                     _finite(blob.get("m", 2.0), "surface.m"))
    except ValueError as exc:
        raise ConfigError(f"bad surface parameters: {exc}")
    raise ConfigError(f"surface.kind must be CP1 or Ruled, got {kind!r}")


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"surface", "output"} | COMMANDS[command][1]
    _check_keys(cfg, allowed, "config")
    if "surface" not in cfg:
        raise ConfigError("config requires a surface block")
    return cfg


def resolve_output(cfg: dict, args) -> tuple:
    out_blob = cfg.get("output", {})
    if not isinstance(out_blob, dict):
        raise ConfigError("output must be an object")
    _check_keys(out_blob, {"path", "format"}, "output")
    path = args.out or out_blob.get("path")
    fmt = args.format or out_blob.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if path is None:
        raise ConfigError("no output path given (config output.path or --out)")
    if not isinstance(path, str):
        raise ConfigError(f"output.path must be a string, got {path!r}")
    out_dir = os.environ.get("MUCSCK_OUT_DIR")
    if out_dir:
        path = os.path.join(out_dir, os.path.basename(path))
    return path, fmt


def cmd_muvol(cfg, spec, fmt):
    lam = _finite(cfg.get("lambda", 0.0), "lambda")
    grid = _monotone(cfg.get("chi_grid", list(np.linspace(-3, 3, 61))), "chi_grid")
    ctx = FunctionalContext(spec)
    rows = []
    for kind, chis in (("sample", grid), ("critical", find_critical(ctx, lam))):
        for chi in chis:
            w = TorusWeight(chi)
            rows.append([kind, chi, mu_vol(ctx, w, lam), d_mu_vol(ctx, w, lam, TorusWeight(1.0))])
    return ["kind", "chi", "mu_vol", "d_mu_vol"], rows, None, "wrote {path}"


def cmd_solve(cfg, spec, fmt):
    lam = _finite(cfg.get("lambda", 0.0), "lambda")
    bracket = _pair(cfg.get("bracket"), "bracket")
    n = _integer(cfg.get("profile_points", 257), "profile_points")
    if not 0 < n <= SCAN_POINTS:
        # input validation, not cost: a row takes about 0.5 us to evaluate for
        # float and extended-precision profiles alike (10001 rows)
        raise ConfigError(f"profile_points must be in [1, {SCAN_POINTS}], got {n}")
    res = solve_chi(spec, lam, bracket)
    rows = None
    if fmt == "csv":
        rows = profile_rows(spec, res.profile, TorusWeight(res.chi), res.lam, n)
    payload = dict(res.to_dict(), x=spec.chi_to_x(res.chi))
    return (["tau", "phi", "dphi", "s_mu"], rows, payload,
            f"chi = {res.chi!r}, certified = {res.certified}")


def cmd_path(cfg, spec, fmt):
    grid = _monotone(cfg.get("lambda_grid", []), "lambda_grid")
    pts = trace(spec, grid, _pair(cfg.get("seed_bracket"), "seed_bracket"))
    header = ["lambda", "chi", "a", "b", "c", "residual", "ode_sup_residual", "positive"]
    ok = sum(1 for p in pts if p.ok)
    return header, [p.to_row() for p in pts], None, f"traced {ok}/{len(pts)} points -> {{path}}"


def cmd_energy(cfg, spec, fmt):
    from .energy import GeodesicPath, _path_energies, potential_from_profile

    if spec.kind != CP1:
        raise ConfigError("energy is implemented on the line (surface.kind CP1)")
    lam = _finite(cfg.get("lambda", 0.0), "lambda")
    w = TorusWeight(_finite(cfg.get("chi", 0.0), "chi"))
    t_grid = _monotone(cfg.get("t_grid", list(np.linspace(0.0, 1.0, 21))), "t_grid")
    if any(t < 0.0 for t in t_grid):
        raise ConfigError("t_grid entries must be nonnegative")
    u0 = potential_from_profile(spec.reference_profile(), spec)
    end = cfg.get("endpoint", {"kind": "fs"})
    if not isinstance(end, dict):
        raise ConfigError("endpoint must be an object")
    _check_keys(end, {"kind", "lambda", "bracket", "eps"}, "endpoint")
    kind = end.get("kind")
    if kind == "fs":
        u1 = u0
    elif kind == "solve":
        res = solve_chi(spec, _finite(end.get("lambda", lam), "endpoint.lambda"),
                        _pair(end.get("bracket"), "endpoint.bracket"))
        u1 = potential_from_profile(res.profile, spec)
    elif kind == "perturbed":
        try:
            bumped = spec.perturbed_profile(_finite(end.get("eps", 0.05), "endpoint.eps"))
        except ValueError as exc:
            raise ConfigError(f"endpoint.eps: {exc}")
        u1 = potential_from_profile(bumped, spec)
    else:
        raise ConfigError(f"endpoint.kind must be fs, solve, or perturbed, got {kind!r}")
    vals = _path_energies(spec, w, lam, GeodesicPath(u0, u1), t_grid)
    # the end rows have no second difference; zip drops the spare None of one point
    rows = [[t, v, s] for t, v, s in zip(t_grid, vals, [None, *np.diff(vals, 2), None])]
    return ["t", "M_value", "second_difference"], rows, None, "wrote {path}"


def cmd_phase(cfg, spec, fmt):
    pd = phase_diagram(spec, _monotone(cfg.get("lambda_grid", []), "lambda_grid"))
    rows = [[lam, count, pd.transition_lambda]
            for lam, count in zip(pd.lambda_grid, pd.critical_counts)]
    return (["lambda", "critical_count", "transition_lambda"], rows, pd.to_dict(),
            f"counts: {pd.critical_counts}, transition: {pd.transition_lambda}")


def cmd_futaki(cfg, spec, fmt):
    lam = _finite(cfg.get("lambda", 0.0), "lambda")
    w = TorusWeight(_finite(cfg.get("chi", 0.0), "chi"))
    w_dir = TorusWeight(_finite(cfg.get("chi_dir", 1.0), "chi_dir"))
    ctx = FunctionalContext(spec)
    payload = vol_report(ctx, w, lam).to_dict()
    payload.update(futaki_dir=d_mu_vol(ctx, w, lam, w_dir), chi=w.chi, chi_dir=w_dir.chi,
                   x=spec.chi_to_x(w.chi))
    payload["lambda"] = lam
    keys = sorted(payload)
    return keys, [[payload[k] for k in keys]], payload, f"futaki = {payload['futaki_dir']!r}"


# name -> (handler, config keys besides surface and output)
COMMANDS = {
    "muvol": (cmd_muvol, {"lambda", "chi_grid"}),
    "solve": (cmd_solve, {"lambda", "bracket", "profile_points"}),
    "path": (cmd_path, {"lambda_grid", "seed_bracket"}),
    "energy": (cmd_energy, {"lambda", "chi", "t_grid", "endpoint"}),
    "phase": (cmd_phase, {"lambda_grid"}),
    "futaki": (cmd_futaki, {"lambda", "chi", "chi_dir"}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mucsck",
        description="Numerical laboratory for weighted constant-curvature metrics",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output file (overrides config)")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.command)
        spec = parse_surface(cfg["surface"])
        out_path, fmt = resolve_output(cfg, args)
        header, rows, payload, line = COMMANDS[args.command][0](cfg, spec, fmt)
        if fmt == "csv":
            write_csv(out_path, header, rows)
        else:
            write_json(out_path, [dict(zip(header, row)) for row in rows]
                       if payload is None else payload)
        if not args.quiet:
            print(line.format(path=out_path))
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MucsckError, ValueError, ArithmeticError) as exc:
        # every config value is checked where it is parsed, so a ValueError
        # (numpy's LinAlgError among them) or an overflow or division by zero
        # on finite extreme input comes from the numerics
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
