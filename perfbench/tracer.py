"""Span tracing of ontoca from outside the package.

`Tracer.install` wraps, by introspection, every public function and every
public class method of the layer modules, and rebinds each wrapped function
wherever another ontoca module imported it by name (cli imports `evolve`
that way).  Dunders, properties and the per-component scalar types
`GaussianInt` and `GaussianRational` stay unwrapped: a scalar operation is
far too small for a span, so its cost falls to the calling span.  That also
means the boxing share inside `gaussian` cannot be told apart from the rest
of it until the package records spans itself.

A span is (name, start, end, parent span, job id).  A layer's self time is
its spans' durations minus the part covered by their child spans, so per
job the layer self times plus the `cli` share (job wall time minus the
top-level spans) add up to the job wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYER_MODULES = ("gaussian", "ontology", "propagator", "multitime", "ising", "gup",
                 "numerics", "serialize")

# The invariant gates.  Their spans count as layer `checks`, whatever module
# holds them, so a speed-up made by skipping a check shows as fewer calls.
CHECKS = (
    "gaussian.Trajectory.verify",
    "gaussian.Trajectory.residual_at",
    "gaussian.two_time_correlation",
    "ising.PhasedPermutation.is_unitary",
    "ising.verify_exponential_form",
    "multitime.equation_residual",
    "gup.robertson_check",
    "numerics.hermiticity_defect",
)

UNTRACED_CLASSES = ("gaussian.GaussianInt", "gaussian.GaussianRational")

LAYERS = LAYER_MODULES + ("checks",)


def layer_of(qualname: str) -> str:
    return "checks" if qualname in CHECKS else qualname.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job id]
        self.stack: list[int] = []
        self.job = None
        self.first_span = 0
        self.wrapped: list[str] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self.stack.append(index)
        return index

    def _exit(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # The body runs on each resume, in the caller's context: one span per resume.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    if tracer.job is None:
                        value = next(inner, _DONE)
                    else:
                        index = tracer._enter(name)
                        try:
                            value = next(inner, _DONE)
                        finally:
                            tracer._exit(index)
                    if value is _DONE:
                        return
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            index = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(index)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, package: str = "ontoca"):
        originals: dict[int, tuple] = {}
        for mod_name in LAYER_MODULES:
            module = importlib.import_module(f"{package}.{mod_name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                qual = f"{mod_name}.{attr}"
                if inspect.isfunction(obj):
                    wrapper = self._wrap(qual, obj)
                    originals[id(obj)] = (obj, wrapper)
                    setattr(module, attr, wrapper)
                    self.wrapped.append(qual)
                elif inspect.isclass(obj) and qual not in UNTRACED_CLASSES:
                    self._install_methods(qual, obj)
        # Rebind names that other ontoca modules imported by name.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
        self.missing = [q for q in CHECKS if q not in self.wrapped]

    def _install_methods(self, qual: str, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue  # dunders and private helpers
            name = f"{qual}.{attr}"
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(name, member))
            else:
                continue  # properties and plain attributes
            self.wrapped.append(name)

    # -- per-job accounting -------------------------------------------------

    def begin_job(self, job_id: int):
        self.job = job_id
        self.first_span = len(self.spans)

    def end_job(self, wall_s: float) -> dict:
        """Per-layer self time and calls of the job just ended, plus `cli`."""
        self.job = None
        spans = self.spans[self.first_span:]
        offset = self.first_span
        child_time = [0.0] * len(spans)
        top_level = 0.0
        for name, start, end, parent, _ in spans:
            if parent is None or parent < offset:
                top_level += end - start
            else:
                child_time[parent - offset] += end - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for k, (name, start, end, _, _) in enumerate(spans):
            layer = layer_of(name)
            self_s[layer] += (end - start) - child_time[k]
            calls[layer] += 1
        return {"wall_s": wall_s, "self_s": self_s, "calls": calls,
                "cli_self_s": wall_s - top_level}


_DONE = object()
