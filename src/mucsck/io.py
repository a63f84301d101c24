"""Deterministic emitters: RFC-4180 CSV with 17-significant-digit floats, JSON.

Both refuse a non-finite float with a ValueError, and both build the whole
output before they open the file, so a refused output leaves no file.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .dh import TorusWeight
from .solver import mu_scalar_curvature


def _fmt17(value) -> str:
    """Fixed 17-significant-digit decimal; lossless for 64-bit floats."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite output value {value!r}")
    return format(value, ".17g")


def csv_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else _fmt17(v) for v in row])
    return buf.getvalue().encode("utf-8")


def write_csv(path, header, rows):
    Path(path).write_bytes(csv_bytes(header, rows))


def json_bytes(payload) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


def write_json(path, payload):
    Path(path).write_bytes(json_bytes(payload))


def profile_rows(spec, profile, w: TorusWeight, lam: float, n: int = 257):
    """(tau, phi, dphi, s_mu) sample rows over the open interval."""
    lo, hi = spec.tau_lo, spec.tau_hi
    ts = np.linspace(lo, hi, n + 2)[1:-1]
    phi = np.asarray(profile.value(ts), dtype=float)
    dphi = np.asarray(profile.deriv(ts), dtype=float)
    smu = np.asarray(mu_scalar_curvature(spec, profile, w, lam, ts), dtype=float)
    return [[t, p, dp, s] for t, p, dp, s in zip(ts, phi, dphi, smu)]
