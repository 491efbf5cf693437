"""Span tracer for the benchmark: wraps hopfion's public functions in place.

A traced run replaces every public function of the ten hopfion modules,
at every module attribute that binds it (the defining module, the
package namespace and each `from .x import f` alias), with a wrapper that
records one span per call.  Spans live in memory and are written out
after the run.  Untraced runs never create a Tracer, so they run the
library unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("algebra", "lattice", "fields", "energy", "topology",
           "gauge", "suites", "minimize", "io", "cli")

# Package-internal `from ... import` bindings that callers resolve at call
# time; each must hold a wrapper once the tracer is installed.
REQUIRED_BINDINGS = (
    ("minimize", "descent_energy"), ("minimize", "descent_gradient"),
    ("minimize", "whitehead_charge"),
    ("gauge", "d"), ("gauge", "wedge"), ("gauge", "energy_map"),
    ("gauge", "energy_potential"), ("gauge", "comm_wedge"),
    ("suites", "d"), ("energy", "wedge"), ("topology", "wedge"),
)


def _area_bytes(args, kwargs, result):
    """Bytes computed by one plaquette-area call: input plus output array sizes."""
    outs = result if isinstance(result, tuple) else (result,)
    return sum(a.nbytes for a in args[:3]) + sum(o.nbytes for o in outs)


# span name -> bytes(args, kwargs, result), evaluated after the call returns
BYTE_COUNTERS = {
    "algebra.spherical_triangle_area": _area_bytes,
    "io.write_snapshot": lambda a, k, r: os.path.getsize(a[0]),
    "io.read_snapshot": lambda a, k, r: os.path.getsize(a[0]),
    "io.export_vtk": lambda a, k, r: os.path.getsize(a[0]),
    "io.export_density_csv": lambda a, k, r: os.path.getsize(a[0]),
}


class Tracer:
    """Collects spans (name, start, end, parent, run id, bytes) in memory."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []          # [name, start, end, parent, bytes]
        self._stack = []
        self._bindings = []      # (module, attribute, original)
        self._originals = {}     # original function -> span name

    # -- recording --------------------------------------------------------
    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = BYTE_COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, 0])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                spans[idx][4] = counter(args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = fn
        return traced

    # -- installation -----------------------------------------------------
    def install(self):
        """Rebind every public hopfion function at every module that binds it."""
        if self._bindings:
            raise RuntimeError("tracer already installed")
        originals = {}
        for short in MODULES:
            mod = importlib.import_module(f"hopfion.{short}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[obj] = f"{short}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in originals.items()}
        for mod in _hopfion_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        self._originals = originals
        self.verify()

    def verify(self):
        """Fail loudly when any binding still resolves to an unwrapped function."""
        missed = [f"{mod.__name__}.{attr}"
                  for mod in _hopfion_modules()
                  for attr, obj in vars(mod).items()
                  if inspect.isfunction(obj) and obj in self._originals]
        for short, attr in REQUIRED_BINDINGS:
            obj = getattr(sys.modules[f"hopfion.{short}"], attr)
            if not hasattr(obj, "__wrapped_by_tracer__"):
                missed.append(f"hopfion.{short}.{attr}")
        if missed:
            self.uninstall()
            raise RuntimeError("tracer missed wrapper bindings: "
                               + ", ".join(dict.fromkeys(missed)))

    def uninstall(self):
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings = []

    # -- output -----------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, nbytes) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "run": self.run_id, "bytes": nbytes}) + "\n")


def _hopfion_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hopfion" or name.startswith("hopfion."))]


class SpanStats:
    """Per-name aggregates of a span list: calls, inclusive and self time, bytes."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        self.self_time = [end - start - child_time[i]
                          for i, (_, start, end, _, _) in enumerate(spans)]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.nbytes = defaultdict(int)
        for i, (name, start, end, _, nbytes) in enumerate(spans):
            self.calls[name] += 1
            self.total[name] += end - start
            self.self_s[name] += self.self_time[i]
            self.nbytes[name] += nbytes

    def module_self(self, short):
        prefix = short + "."
        return sum((v for k, v in self.self_s.items() if k.startswith(prefix)), 0.0)

    def root_time(self):
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def calls_under(self, ancestor, name):
        """Calls of `name` whose span lies inside a span named `ancestor`."""
        count = 0
        for name_i, _, _, parent, _ in self.spans:
            if name_i != name:
                continue
            while parent is not None and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent is not None
        return count
