"""Span tracing of multiagg from outside the package.

`Tracer.install()` replaces public functions of the multiagg modules with
timing wrappers and `uninstall()` puts the originals back; nothing in the
package is edited.  A function is replaced in every multiagg module that
holds it, so a name bound by `from ... import` is traced where it is called.
Callers look the names up at call time, so the wrappers see every call.

Each call of a wrapped function is a span: name, start, end, parent span and
job id, kept in memory and written out once the run ends.  The kernel
methods `ScalarPotential.deriv` / `.value` are called thousands of times per
step, so they are counted rather than recorded: their calls, evaluated
elements and time are summed per name, and their time is charged to the
enclosing span so that its self time excludes it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

# (module, attribute, span name).  Order is irrelevant.
SPANS = [
    ("multiagg.cli", "main", "cli.main"),
    ("multiagg.config", "parse_config", "config.parse_config"),
    ("multiagg.potentials", "estimate_growth_bound", "potentials.estimate_growth_bound"),
    ("multiagg.quantile_solver", "run", "quantile_solver.run"),
    ("multiagg.quantile_solver", "step", "quantile_solver.step"),
    ("multiagg.quantile_solver", "stable_dt", "quantile_solver.stable_dt"),
    ("multiagg.particle_solver", "run_particles", "particle_solver.run_particles"),
    ("multiagg.particle_solver", "discrete_energy", "particle_solver.discrete_energy"),
    ("multiagg.diagnostics", "record", "diagnostics.record"),
    ("multiagg.diagnostics", "energy", "diagnostics.energy"),
    ("multiagg.diagnostics", "dissipation", "diagnostics.dissipation"),
    ("multiagg.measures", "write_quantile_csv", "measures.write_quantile_csv"),
    ("multiagg.measures", "read_quantile_csv", "measures.read_quantile_csv"),
    ("multiagg.measures", "write_particle_csv", "measures.write_particle_csv"),
    ("multiagg.measures", "compound_distance", "measures.compound_distance"),
    ("multiagg.verify", "run_verification", "verify.run_verification"),
]

# Counted kernel methods, wrapped on the base class and on any kernel class
# that overrides them.
COUNTED = [("deriv", "potentials.deriv"), ("value", "potentials.value")]


def _steps(cfg) -> int:
    """Steps the solvers take for a fixed-dt config (0 when dt is derived)."""
    if cfg.dt is None:
        return 0
    n_full = int(np.floor(cfg.t_end / cfg.dt + 1e-9))
    remainder = cfg.t_end - n_full * cfg.dt
    return n_full + (1 if remainder >= 1e-12 * max(cfg.dt, 1.0) else 0)


# Per-span extra number: bytes moved, repair flag, or steps taken.
_EXTRA_BEFORE = {
    "measures.read_quantile_csv": lambda args, kwargs: os.path.getsize(args[0]),
}
_EXTRA_AFTER = {
    "measures.write_quantile_csv": lambda args, result: os.path.getsize(args[0]),
    "measures.write_particle_csv": lambda args, result: os.path.getsize(args[0]),
    "quantile_solver.step": lambda args, result: int(result[1].repair_applied),
    "particle_solver.run_particles": lambda args, result: _steps(args[2]),
}


def _safe(hook, args, other) -> int:
    """A hook's number, or 0: a tracing hook must never fail the traced call."""
    if hook is None:
        return 0
    try:
        return hook(args, other)
    except Exception:
        return 0


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, job, counted seconds, extra]
        self.spans: list = []
        self.stack: list = []
        self.job = -1
        self.counted = {name: [0, 0, 0.0] for _, name in COUNTED}  # calls, evals, s
        self._in_counted = False
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "multiagg" or name.startswith("multiagg.")}
        for module, attr, name in SPANS:
            original = getattr(modules.get(module), attr, None)
            if original is None:  # layer absent from this version: its metrics read 0
                continue
            wrapper = self._span_wrapper(name, original)
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original, wrapper))
        classes = [modules["multiagg.potentials"].ScalarPotential]
        for cls in classes:
            classes.extend(cls.__subclasses__())
        for attr, name in COUNTED:
            for cls in classes:
                if attr in cls.__dict__:
                    original = cls.__dict__[attr]
                    self._patches.append((cls, attr, original,
                                          self._counted_wrapper(name, original)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        before = _EXTRA_BEFORE.get(name)
        after = _EXTRA_AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0,
                    _safe(before, args, kwargs)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            span[6] = _safe(after, args, result)
            return result

        return wrapper

    def _counted_wrapper(self, name, fn):
        totals = self.counted[name]
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(obj, z):
            if self._in_counted:
                return fn(obj, z)
            self._in_counted = True
            t0 = perf_counter()
            try:
                return fn(obj, z)
            finally:
                elapsed = perf_counter() - t0
                self._in_counted = False
                totals[0] += 1
                totals[1] += int(np.size(z))
                totals[2] += elapsed
                if stack:
                    spans[stack[-1]][5] += elapsed

        return wrapper

    def write(self, path):
        """Spans as JSON lines, then one line of counted-call totals."""
        with open(path, "w") as fh:
            for name, start, end, parent, job, counted_s, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "counted_s": counted_s, "extra": extra}) + "\n")
            fh.write(json.dumps({"counted": self.counted}) + "\n")

    def by_name(self):
        """name -> (durations, self times, extras), one entry per span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for k, (name, start, end, _, _, counted_s, extra) in enumerate(self.spans):
            dur, self_s, extras = out.setdefault(name, ([], [], []))
            dur.append(end - start)
            self_s.append(end - start - child[k] - counted_s)
            extras.append(extra)
        return out
