"""Spans and counters around the public functions of the algebroid modules.

Nothing under src/ changes: a ``Patch`` rebinds each function in every
``algebroid.*`` namespace that holds it (``antideriv`` imports
``surface_integral`` by name, ``surface`` imports ``discriminant``, ...), so
calls cannot go around the wrapper, and puts the originals back on exit.

Two instruments use it:

* ``Tracer`` records one span per call of the TIMED functions: name, start,
  end, parent span, operation id and whether it raised. Spans stay in memory
  and are written out when the benchmark ends. A span's self time is its
  duration minus the time covered by its child spans.
* ``Counter`` counts calls of the TIMED functions plus the hot evaluation
  paths (``DefiningEquation.a_values``/``psi``/..., tracker construction and
  cloning, ``np.linalg.lstsq``). Wrapping those in the timed trace would
  distort every self time, so they are only ever counted, in a separate pass.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from time import perf_counter

import numpy as np

# (module, qualified name, metric name); metric names are "<module>.<function>".
TIMED = [
    ("cli", "load_problem", "cli.load_problem"),
    ("cli", "dumps_report", "cli.dumps_report"),
    ("exactalg", "parse_coefficient", "exactalg.parse_coefficient"),
    ("exactalg", "discriminant", "exactalg.discriminant"),
    ("rootfind", "all_roots", "rootfind.all_roots"),
    ("surface", "DefiningEquation.__init__", "surface.DefiningEquation.init"),
    ("surface", "critical_points", "surface.critical_points"),
    ("surface", "fiber_at", "surface.fiber_at"),
    ("surface", "monodromy", "surface.monodromy"),
    ("surface", "irreducibility_check", "surface.irreducibility_check"),
    ("surface", "generator_loops", "surface.generator_loops"),
    ("tracker", "SegmentTracker.advance_to", "tracker.SegmentTracker.advance_to"),
    ("tracker", "germ_at", "tracker.germ_at"),
    ("tracker", "continue_fiber", "tracker.continue_fiber"),
    ("tracker", "continue_branch", "tracker.continue_branch"),
    ("tracker", "safe_line", "tracker.safe_line"),
    ("tracker", "anchored_loop", "tracker.anchored_loop"),
    ("puiseux", "cycle_structure", "puiseux.cycle_structure"),
    ("puiseux", "puiseux_expand", "puiseux.puiseux_expand"),
    ("puiseux", "residue_by_contour", "puiseux.residue_by_contour"),
    ("puiseux", "singular_elements", "puiseux.singular_elements"),
    ("quad", "surface_integral", "quad.surface_integral"),
    ("quad", "residue_theorem_check", "quad.residue_theorem_check"),
    ("quad", "c_ab", "quad.c_ab"),
    ("quad", "path_independence_audit", "quad.path_independence_audit"),
    ("antideriv", "SheetRouter.__init__", "antideriv.SheetRouter.init"),
    ("antideriv", "branch_integrals_at", "antideriv.branch_integrals_at"),
    ("antideriv", "fit_rational", "antideriv.fit_rational"),
    ("antideriv", "verify_antiderivative", "antideriv.verify_antiderivative"),
    ("antideriv", "build_antiderivative", "antideriv.build_antiderivative"),
    ("antideriv", "constant_family", "antideriv.constant_family"),
]

HOT = [
    ("rootfind", "newton_polish", "rootfind.newton_polish"),
    ("surface", "DefiningEquation.a_values", "surface.eval.a_values"),
    ("surface", "DefiningEquation.psi", "surface.eval.psi"),
    ("surface", "DefiningEquation.psi_w", "surface.eval.psi_w"),
    ("surface", "DefiningEquation.psi_z", "surface.eval.psi_z"),
    ("surface", "DefiningEquation.residual_scale", "surface.eval.residual_scale"),
    ("tracker", "SegmentTracker.__init__", "tracker.SegmentTracker.init"),
    ("tracker", "SegmentTracker.clone", "tracker.SegmentTracker.clone"),
]

LAYERS = ("cli", "exactalg", "rootfind", "surface", "tracker", "puiseux", "quad", "antideriv")
OP = "op"


class Patch:
    """Replaces functions by wrappers everywhere algebroid code can reach them."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, module: str, qualname: str, make_wrapper) -> None:
        mod = importlib.import_module(f"algebroid.{module}")
        if "." in qualname:
            owner_name, attr = qualname.split(".")
            owner = getattr(mod, owner_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, make_wrapper(original))
            return
        original = getattr(mod, qualname)
        wrapper = make_wrapper(original)
        for name, namespace in list(sys.modules.items()):
            if name != "algebroid" and not name.startswith("algebroid."):
                continue
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._set(namespace, attr, wrapper)

    def wrap_object(self, owner, attr: str, make_wrapper) -> None:
        self._set(owner, attr, make_wrapper(getattr(owner, attr)))

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """In-memory spans of the TIMED functions; one operation at a time."""

    def __init__(self):
        self.names: list = [OP]
        self.spans: list = []  # (name id, start, end, parent index, op id, raised)
        self._stack: list = []
        self.op_id = -1
        self._patch = Patch()

    def _traced(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op_id, raised)

        return traced

    def __enter__(self):
        for module, qualname, name in TIMED:
            self._patch.wrap(module, qualname, functools.partial(self._traced, name))
        return self

    def __exit__(self, *exc):
        self._patch.restore()

    def run_op(self, op_id: int, call):
        """Run one operation under a root span named ``op``."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        raised = True
        start = perf_counter()
        try:
            out = call()
            raised = False
            return out
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (0, start, end, -1, op_id, raised)

    def summary(self, groups=None) -> dict:
        """Per-name calls/self/total/errors; self and inclusive time per layer
        and per group of layers (``{"name": (layer, ...)}``).

        Inclusive time counts each span of a layer (or group) whose ancestors
        are outside it, so nested calls are not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        bits = [layer_bit.get(n.split(".")[0], 0) for n in self.names]
        above = [0] * len(spans)
        per_name = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
                    for n in self.names}
        layers = {layer: {"self_s": 0.0, "inclusive_s": 0.0} for layer in LAYERS}
        masks = {name: sum(layer_bit[layer] for layer in members)
                 for name, members in (groups or {}).items()}
        grouped = {name: {"self_s": 0.0, "inclusive_s": 0.0} for name in masks}
        op_time = 0.0
        for idx, (name_id, start, end, parent, _, raised) in enumerate(spans):
            dur = end - start
            if parent >= 0:
                above[idx] = above[parent] | bits[spans[parent][0]]
            name = self.names[name_id]
            row = per_name[name]
            row["calls"] += 1
            row["self_s"] += dur - child[idx]
            row["total_s"] += dur
            row["errors"] += raised
            if name_id == 0:
                op_time += dur
                continue
            for row, mask in [(layers[name.split(".")[0]], bits[name_id])] + [
                    (grouped[g], m) for g, m in masks.items() if m & bits[name_id]]:
                row["self_s"] += dur - child[idx]
                if not above[idx] & mask:
                    row["inclusive_s"] += dur
        return {"op_seconds": op_time, "functions": per_name, "layers": layers,
                "groups": grouped}

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write('["name", "start", "end", "parent", "op", "raised"]\n')
            for name_id, start, end, parent, op_id, raised in self.spans:
                fh.write(f'["{self.names[name_id]}", {start - origin:.9f}, {end - origin:.9f}, '
                         f'{parent}, {op_id}, {str(raised).lower()}]\n')


class Counter:
    """Call counts of the TIMED and HOT functions, plus ``np.linalg.lstsq``."""

    def __init__(self):
        self.counts: dict = {}
        self._patch = Patch()

    def _counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self):
        for module, qualname, name in TIMED + HOT:
            self._patch.wrap(module, qualname, functools.partial(self._counted, name))
        self._patch.wrap_object(np.linalg, "lstsq",
                                functools.partial(self._counted, "numpy.linalg.lstsq"))
        return self

    def __exit__(self, *exc):
        self._patch.restore()
