"""Per-layer tracing of an ``esfem`` run from outside the package.

``install()`` wraps the public functions of each layer.  Modules bind
functions by name (``from .sparse import cg_solve``), so every ``esfem.*``
module attribute that *is* an original function is replaced by its wrapper;
methods are wrapped on their class.  Each wrapper is a span: it adds its
self time (duration minus the time of the spans it encloses) to its layer,
its duration to the enclosing span, and one call to its layer unless the
enclosing span belongs to the same layer.  Spans are aggregated as they
close; nothing else is kept.  The wrappers only read arguments and results.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict
from functools import wraps

import numpy as np

# layer -> (module, attribute) of the functions that make it up
FUNCTIONS = {
    "meshing.build": [("esfem.meshing", "build_sphere_mesh"),
                      ("esfem.meshing", "build_circle_mesh")],
    "fem.geometry": [("esfem.fem", "element_geometry")],
    "fem.assembly": [("esfem.fem", "assemble_mass"),
                     ("esfem.fem", "assemble_stiffness")],
    "fem.load": [("esfem.fem", "load_vector"),
                 ("esfem.fem", "load_from_geometry")],
    "fem.norms": [("esfem.fem", name) for name in (
        "element_values", "values_norm_lq", "element_norms_lq", "norm_lq",
        "norm_w1q", "seminorm_h1")],
    "fem.locate": [("esfem.fem", "locate_point")],
    "fem.inverse_lift": [("esfem.fem", "radial_inverse_lift")],
    "sparse.cg": [("esfem.sparse", "cg_solve")],
    "timestepping.solve_heat": [("esfem.timestepping", "solve_heat")],
    "timestepping.spacetime_norm": [("esfem.timestepping", "spacetime_norm")],
    "greens.discrete_green": [("esfem.greens", "discrete_green")],
    "greens.kernel_difference": [("esfem.greens", "kernel_difference_l1")],
    "studies.emit": [("esfem.studies", "emit_reports"),
                     ("esfem.cli", "_write_manifest")],
}

# layer -> (module, class, method)
METHODS = {
    "sparse.matvec": ("esfem.sparse", "SparseMatrix", "matvec"),
    "meshing.evolved": ("esfem.meshing", "SurfaceMesh", "evolved"),
}

# forcing closures are made per call of forcing_profile; each one it returns
# is wrapped as a span of this layer
FORCING = ("esfem.surfaces", "forcing_profile", "surfaces.forcing")

LAYERS = tuple(FUNCTIONS) + tuple(METHODS) + (FORCING[2],)


def _matvec_bytes(mat):
    # computed, not measured: data, column index and gathered x per nonzero,
    # the row pointers, and the result vector
    nnz = len(mat.data)
    return (nnz * (mat.data.itemsize + mat.indices.itemsize + 8)
            + len(mat.indptr) * mat.indptr.itemsize + mat.n * 8)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._stack = []  # open spans: [layer, seconds of enclosed spans]

    def span(self, layer, fn, count=None):
        stack = self._stack
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            outer = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.self_s[layer] += elapsed - frame[1]
                if outer is None or outer[0] != layer:
                    self.total_s[layer] += elapsed
                    self.calls[layer] += 1
                if outer is not None:
                    outer[1] += elapsed
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every layer function in all loaded ``esfem`` modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "esfem" or name.startswith("esfem.")) and m is not None]
        replacements = []
        for layer, targets in FUNCTIONS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                replacements.append(
                    (original, self.span(layer, original, _COUNTERS.get(layer))))
        module, attr, forcing_layer = FORCING
        make_forcing = getattr(sys.modules[module], attr)

        @wraps(make_forcing)
        def forcing_profile(*args, **kwargs):
            return self.span(forcing_layer, make_forcing(*args, **kwargs), _count_points)

        replacements.append((make_forcing, forcing_profile))
        for original, wrapper in replacements:
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        for layer, (module, cls_name, method) in METHODS.items():
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self.span(layer, original, _COUNTERS.get(layer)))
        return self

    def layer_metrics(self, wall_s):
        """Per-layer metrics of one traced run whose wall time is wall_s."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
        c = self.counts
        out["sparse.cg.iterations"] = int(c["cg_iterations"])
        cg_calls = self.calls["sparse.cg"]
        out["sparse.cg.iters_per_solve"] = c["cg_iterations"] / cg_calls if cg_calls else 0.0
        out["sparse.matvec.gb_computed"] = c["matvec_bytes"] / 1e9
        out["surfaces.forcing.points"] = int(c["forcing_points"])
        out["fem.inverse_lift.points"] = int(c["inverse_lift_points"])
        steps = int(c["steps"])
        out["timestepping.steps"] = steps
        out["timestepping.dof_steps"] = int(c["dof_steps"])
        solve_total = self.total_s["timestepping.solve_heat"]
        out["timestepping.step_ms"] = 1e3 * solve_total / steps if steps else 0.0
        accounted = math.fsum(self.self_s[layer] for layer in LAYERS)
        out["trace.other.s"] = wall_s - accounted
        return out


def _count_cg(counts, args, kwargs, result):
    counts["cg_iterations"] += result[1].iterations


def _count_matvec(counts, args, kwargs, result):
    counts["matvec_bytes"] += _matvec_bytes(args[0])


def _count_points(counts, args, kwargs, result):
    # forcings are called as f(t, x) with x of shape (..., d)
    counts["forcing_points"] += math.prod(np.shape(args[-1])[:-1])


def _count_inverse_lift(counts, args, kwargs, result):
    counts["inverse_lift_points"] += len(result[0])


def _count_solve_heat(counts, args, kwargs, result):
    solve_heat = sys.modules["esfem.timestepping"].solve_heat
    bound = inspect.signature(solve_heat).bind(*args, **kwargs)
    steps = bound.arguments["grid"].n_steps
    counts["steps"] += steps
    counts["dof_steps"] += bound.arguments["mesh0"].num_nodes * steps


_COUNTERS = {
    "sparse.cg": _count_cg,
    "sparse.matvec": _count_matvec,
    "fem.inverse_lift": _count_inverse_lift,
    "timestepping.solve_heat": _count_solve_heat,
}
