"""Spans around the program's public functions, and the per-layer metrics.

`Tracer.install` wraps every public module-level function of every mucsck
module, in each module namespace that holds it: `mucsck.path.residual` as
well as `mucsck.solver.residual`, since a call looks the name up in the
calling module.  It also wraps the three `ClosedFormProfile.psi_*` methods
(spans named by arithmetic branch) and counts the nodes passed to
`DHMeasure.density` from inside a dh quadrature call.  Spans are kept in
memory as (name, start, end, parent) and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from collections import Counter, defaultdict

import numpy as np

import mucsck
from mucsck.dh import DHMeasure
from mucsck.profiles import ClosedFormProfile

PSI_METHODS = ("psi_value", "psi_deriv", "psi_deriv2")

# name, unit, better; the order is the order of the report
PER_LAYER = [
    ("cli.parse_ms", "ms", "lower"),
    ("io.write_ms", "ms", "lower"),
    ("io.bytes", "bytes", "lower"),
    ("path.trace_ms", "ms", "lower"),
    ("path.trace_points", "count", "higher"),
    ("path.freeze_ms", "ms", "lower"),
    ("path.freeze_find_critical_calls", "count", "lower"),
    ("path.phase_ms", "ms", "lower"),
    ("functionals.ms", "ms", "lower"),
    ("functionals.find_critical_calls", "count", "lower"),
    ("functionals.d_mu_vol_calls", "count", "lower"),
    ("functionals.d2_mu_vol_calls", "count", "lower"),
    ("functionals.log_vol_calls", "count", "lower"),
    ("dh.ms", "ms", "lower"),
    ("dh.calls", "count", "lower"),
    ("dh.nodes", "count", "lower"),
    ("dh.nodes_per_call", "count", "lower"),
    ("solver.residual_ms", "ms", "lower"),
    ("solver.residual_calls", "count", "lower"),
    ("solver.residuals_per_root", "count", "lower"),
    ("solver.solve_at_calls", "count", "lower"),
    ("solver.mp_solves", "count", "lower"),
    ("solver.certificate_ms", "ms", "lower"),
    ("solver.ode_check_ms", "ms", "lower"),
    ("profiles.mp_nodes", "count", "lower"),
    ("profiles.mp_ms", "ms", "lower"),
    ("profiles.float_nodes", "count", "lower"),
    ("energy.partial_ms", "ms", "lower"),
    ("energy.partial_calls", "count", "lower"),
    ("energy.path_ms", "ms", "lower"),
    ("energy.chen_tian_ms", "ms", "lower"),
    ("energy.potential_ms", "ms", "lower"),
    ("energy.invert_calls", "count", "lower"),
]


def _modules():
    out = []
    for info in pkgutil.iter_modules(mucsck.__path__):
        out.append(importlib.import_module(f"mucsck.{info.name}"))
    return out


def _size(tau):
    return int(np.size(tau))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index]
        self.stack = [-1]
        self.counts = Counter()  # counts taken at the wrapped boundaries
        self._restore = []

    # -- spans ----------------------------------------------------------------

    def span(self, name):
        """Open a span; returns its record, to be passed to `close`."""
        rec = [name, 0, 0, self.stack[-1]]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.span(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _wrap_psi(self, method, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(profile, tau):
            branch = "mp" if profile.use_mp else "float"
            tracer.counts[f"profiles.{branch}_nodes"] += _size(tau)
            rec = tracer.span(f"profiles.{method}.{branch}")
            try:
                return fn(profile, tau)
            finally:
                tracer.close(rec)

        return wrapper

    def _wrap_density(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(measure, tau):
            top = tracer.stack[-1]
            if top >= 0 and tracer.spans[top][0].startswith("dh."):
                tracer.counts["dh.nodes"] += _size(tau)
            return fn(measure, tau)

        return wrapper

    # -- installation -------------------------------------------------------------

    def _after(self, name):
        counts = self.counts
        if name == "solver.solve_at":
            def after(args, res):
                counts["solver.mp_solves"] += int(res.profile.use_mp)
            return after
        if name == "path.trace":
            def after(args, points):
                counts["path.trace_points"] += len(points)
            return after
        if name in ("io.write_csv", "io.write_json"):
            def after(args, _):
                counts["io.bytes"] += os.path.getsize(args[0])
            return after
        return None

    def install(self):
        modules = _modules()
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    span = f"{layer}.{name}"
                    wrappers[fn] = self._wrap(span, fn, self._after(span))
        for mod in [mucsck] + modules:
            for name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._restore.append((mod, name, fn))
                    setattr(mod, name, wrappers[fn])
        for method in PSI_METHODS:
            fn = getattr(ClosedFormProfile, method)
            self._restore.append((ClosedFormProfile, method, fn))
            setattr(ClosedFormProfile, method, self._wrap_psi(method, fn))
        self._restore.append((DHMeasure, "density", DHMeasure.density))
        DHMeasure.density = self._wrap_density(DHMeasure.density)

    def uninstall(self):
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------------------

    def self_times_ns(self, factors):
        """Total self time per span name, each span scaled by its job's speed factor.

        Self time is the span's duration minus its children's durations; the
        spans of job j follow the root span "job.<kind>" that opened it.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        job = -1
        for (name, start, end, _), inner in zip(self.spans, child):
            if name.startswith("job."):
                job += 1
            out[name] += (end - start - inner) / factors[job]
        return out

    def span_counts(self):
        return Counter(rec[0] for rec in self.spans)

    def freeze_find_critical_calls(self):
        spans = self.spans
        return sum(1 for name, _, _, parent in spans
                   if name == "functionals.find_critical" and parent >= 0
                   and spans[parent][0] == "path.lambda_freeze_estimate")

    def metrics(self, factors):
        """Per-layer metrics per job; `factors` are the jobs' speed factors, in order."""
        jobs = len(factors)
        self_ns = self.self_times_ns(factors)
        calls = self.span_counts()

        def ms(*names):
            return sum(self_ns.get(n, 0) for n in names) / 1e6

        def layer_ms(layer):
            return sum(v for n, v in self_ns.items() if n.startswith(layer + ".")) / 1e6

        dh_calls = sum(v for n, v in calls.items() if n.startswith("dh."))
        roots = calls["solver.solve_at"]
        total = {
            "cli.parse_ms": ms("cli.load_config", "cli.parse_surface"),
            "io.write_ms": layer_ms("io"),
            "io.bytes": self.counts["io.bytes"],
            "path.trace_ms": ms("path.trace"),
            "path.trace_points": self.counts["path.trace_points"],
            "path.freeze_ms": ms("path.lambda_freeze_estimate"),
            "path.freeze_find_critical_calls": self.freeze_find_critical_calls(),
            "path.phase_ms": ms("path.phase_diagram"),
            "functionals.ms": layer_ms("functionals"),
            "functionals.find_critical_calls": calls["functionals.find_critical"],
            "functionals.d_mu_vol_calls": calls["functionals.d_mu_vol"],
            "functionals.d2_mu_vol_calls": calls["functionals.d2_mu_vol"],
            "functionals.log_vol_calls": calls["functionals.log_vol"],
            "dh.ms": layer_ms("dh"),
            "dh.calls": dh_calls,
            "dh.nodes": self.counts["dh.nodes"],
            "solver.residual_ms": ms("solver.residual"),
            "solver.residual_calls": calls["solver.residual"],
            "solver.solve_at_calls": roots,
            "solver.mp_solves": self.counts["solver.mp_solves"],
            "solver.certificate_ms": ms("solver.positivity_certificate"),
            "solver.ode_check_ms": ms("solver.ode_sup_residual"),
            "profiles.mp_nodes": self.counts["profiles.mp_nodes"],
            "profiles.mp_ms": sum(self_ns.get(f"profiles.{m}.mp", 0) for m in PSI_METHODS) / 1e6,
            "profiles.float_nodes": self.counts["profiles.float_nodes"],
            "energy.partial_ms": ms("energy.muk_energy_partial"),
            "energy.partial_calls": calls["energy.muk_energy_partial"],
            "energy.path_ms": ms("energy.muk_energy_path"),
            "energy.chen_tian_ms": ms("energy.muk_energy_chen_tian"),
            "energy.potential_ms": ms("energy.potential_from_profile"),
            "energy.invert_calls": calls["energy.invert_uprime"],
        }
        out = {name: value / jobs for name, value in total.items()}
        # ratios of totals, not of per-job means
        out["dh.nodes_per_call"] = total["dh.nodes"] / dh_calls if dh_calls else 0.0
        out["solver.residuals_per_root"] = (
            total["solver.residual_calls"] / roots if roots else 0.0)
        return out

    def write(self, path, extra):
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        blob = dict(extra)
        blob["span_names"] = names
        blob["spans"] = [[index[n], s, e, p] for n, s, e, p in self.spans]
        blob["span_fields"] = ["name", "start_ns", "end_ns", "parent"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh, separators=(",", ":"))
