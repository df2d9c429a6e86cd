"""Per-layer trace of fanokit, recorded from outside the package.

Every public function and public method of each layer module (plus
``__init__`` and ``__post_init__``, where construction does its validation)
is replaced by a wrapper that records a span: kind, parent span, start, end
and a work count.  A function imported by name into other fanokit modules is
replaced there too, so ``compensated_tree_sum`` is traced whether ``expint``,
``measure``, ``functionals`` or ``optimize`` calls it.  Spans are kept in
flat arrays and written out once, when the run ends.

A layer's self time is the duration of its spans minus that of their child
spans; the layer self times plus the time outside any span add up to the
traced wall time.  A name or module that a later refactor removes is
reported absent and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# module -> layer name in metric names (metric names must start with a letter)
LAYERS = {
    "cli": "cli", "serialize": "serialize", "checks": "checks", "geometry": "geometry",
    "rational": "rational", "filtration": "filtration", "measure": "measure",
    "functionals": "functionals", "expint": "expint", "_kernel": "kernel",
    "optimize": "optimize",
}

# Scalar and vector helpers cost about as much per call as a span does, so a
# span would mostly measure itself; their time stays with the calling layer.
UNTRACED = {"fanokit.rational." + n for n in
            ("rat", "rat_vector", "format_rat", "dot", "vsub", "vadd", "smul")}

_K = "fanokit._kernel."
# metric -> qualified names whose outermost calls it counts
COUNTED = {
    "geometry.hulls": ("fanokit.geometry.RationalPolytope.from_vertices",
                       "fanokit.geometry.RationalPolytope.facets"),
    "geometry.triangulations": ("fanokit.geometry.RationalPolytope.triangulate",
                                "fanokit.geometry.triangulate"),
    "geometry.slices": ("fanokit.geometry.halfspace_slice",),
    "rational.calls": tuple("fanokit.rational." + n for n in
                            ("det", "matrix_rank", "solve_square", "invert", "affine_rank")),
    "filtration.levels": ("fanokit.filtration.FiltrationLevel.__init__",),
    "measure.superlevel_evals": ("fanokit.measure.DHMeasure.mass_above",),
    "expint.cell_integrals": ("fanokit.expint.simplex_exp_integral",
                              "fanokit.expint.simplex_weighted_exp_integral"),
    "kernel.dd_calls": (_K + "dd_exp", _K + "dd_exp_weighted"),
    "kernel.series_calls": (_K + "dd_exp_series",),
}
# metric -> names whose summed work count (outermost calls) it reports
WORK = {
    "kernel.dd_nodes": COUNTED["kernel.dd_calls"],
    "kernel.reduce_leaves": (_K + "compensated_tree_sum",),
}
# metric -> names whose self time it reports
SELF = {
    "kernel.dd_self_s": COUNTED["kernel.dd_calls"] + COUNTED["kernel.series_calls"],
    "kernel.reduce_self_s": WORK["kernel.reduce_leaves"],
}
NEWTON = "fanokit.optimize.newton_minimize"
SOLVER_CALLBACKS = ("optimize.f_evals", "optimize.grad_evals", "optimize.hess_evals")


def _work_of(name):
    """Work count recorded with a span: node-matrix dimension or leaf count."""
    if name in (_K + "dd_exp", _K + "compensated_tree_sum"):
        return lambda args, kw: len(args[0]) if args else 0
    if name == _K + "dd_exp_weighted":
        return lambda args, kw: (len(args[0]) if args else 0) * (
            (args[2] if len(args) > 2 else kw.get("k", 0)) + 1)
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.missing_modules: list[str] = []

    def _span_wrapper(self, fn, name, layer):
        sid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        kind, parent, start, end, work, stack = (
            self.kind, self.parent, self.start, self.end, self.work, self.stack)
        clock = time.perf_counter
        count = _work_of(name)
        transform = self._count_callbacks if name == NEWTON else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and kind[top] == sid:  # direct recursion folds into its outer span
                return fn(*args, **kwargs)
            if transform is not None:
                args = transform(args)
            idx = len(kind)
            kind.append(sid)
            parent.append(top)
            work.append(count(args, kwargs) if count else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_callbacks(self, args):
        """Count objective, gradient and Hessian evaluations of newton_minimize."""
        counters = self.counters

        def counted(fn, key):
            def inner(*a, **kw):
                counters[key] += 1
                return fn(*a, **kw)
            return inner

        return tuple(counted(f, key) for f, key in zip(args[:3], SOLVER_CALLBACKS)) + args[3:]

    def install(self) -> None:
        """Wrap every layer's public callables wherever fanokit modules bound them."""
        modules = {}
        for m in LAYERS:
            try:
                modules[m] = importlib.import_module(f"fanokit.{m}")
            except ModuleNotFoundError:
                self.missing_modules.append(f"fanokit.{m}")
        replaced = {}
        for modname, mod in modules.items():
            layer = LAYERS[modname]
            prefix = mod.__name__
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == prefix:
                    self._wrap_class(obj, f"{prefix}.{attr}", layer)
                elif ((inspect.isfunction(obj) or inspect.isbuiltin(obj))
                      and getattr(obj, "__module__", "").startswith(prefix)):
                    name = f"{prefix}.{attr}"
                    if name not in UNTRACED and id(obj) not in replaced:
                        replaced[id(obj)] = (obj, self._span_wrapper(obj, name, layer))
        for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "fanokit"]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, cls, qualname, layer):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ("__init__", "__post_init__"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(val, (classmethod, staticmethod)):
                setattr(cls, attr, type(val)(self._span_wrapper(val.__func__, name, layer)))
            elif inspect.isfunction(val):
                setattr(cls, attr, self._span_wrapper(val, name, layer))

    # -- results -------------------------------------------------------------

    def arrays(self):
        return {
            "kind": np.frombuffer(self.kind, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }

    def metrics(self, traced_wall: float) -> tuple[dict, list[str]]:
        """Per-layer self times and counts; also the names found absent."""
        a = self.arrays()
        kind, parent = a["kind"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        nk = len(self.names)
        self_by_kind = np.bincount(kind, weights=self_time, minlength=nk)
        parent_kind = np.where(has_parent, kind[np.maximum(parent, 0)], -1)
        index = {n: i for i, n in enumerate(self.names)}
        absent = set(self.missing_modules)

        def kinds(names):
            absent.update(n for n in names if n not in index)
            return np.array([index[n] for n in names if n in index], dtype=np.int32)

        def outermost(names):
            ks = kinds(names)
            return np.isin(kind, ks) & ~np.isin(parent_kind, ks)

        out = {}
        for layer in LAYERS.values():
            ks = [i for i, lay in enumerate(self.layers) if lay == layer]
            out[f"{layer}.self_s"] = float(self_by_kind[ks].sum())
        for metric, names in COUNTED.items():
            out[metric] = int(outermost(names).sum())
        for metric, names in WORK.items():
            out[metric] = int(a["work"][outermost(names)].sum())
        for metric, names in SELF.items():
            out[metric] = float(self_by_kind[kinds(names)].sum())
        if NEWTON not in index:
            absent.add(NEWTON)
        for key in SOLVER_CALLBACKS:
            out[key] = int(self.counters[key])
        top_level = float(dur[~has_parent].sum())
        out["trace.wall_s"] = traced_wall
        out["trace.outside_s"] = traced_wall - top_level
        out["trace.spans"] = int(len(kind))
        return out, sorted(absent)

    def save(self, path, job_span_start, job_names) -> None:
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layers),
                            job_span_start=np.array(job_span_start, dtype=np.int64),
                            job_names=np.array(job_names), **self.arrays())
