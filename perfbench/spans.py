"""Spans around projconst's public functions, for the traced benchmark run.

`install` replaces each traced function at every name a projconst module
binds it to (``projconst.constants.integrate_abs_jacobi``,
``projconst.quadrature.jacobi_roots``, ...), so calls between modules are
recorded without touching the library. Spans stay in memory; `dump` writes
them out when the run ends. A layer's self time is its spans' durations minus
the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# module -> {function: layer}
TARGETS = {
    "projconst.constants": dict.fromkeys(
        ("lambda_harmonic", "lambda_homogeneous", "lambda_poly_leq",
         "lambda_complex_homogeneous", "lambda_hilbert"), "constants"),
    "projconst.gammafn": dict.fromkeys(
        ("log_gamma", "gamma_ratio", "beta", "duplication_residual"), "gammafn"),
    "projconst.orthopoly": {
        "jacobi_roots": "orthopoly.jacobi_roots",
        "jacobi_eval": "orthopoly.eval",
        "legendre_nd_eval": "orthopoly.eval",
    },
    "projconst.quadrature": {
        "integrate_abs_jacobi": "quadrature.abs_jacobi",
        "dirichlet_lebesgue": "quadrature.dirichlet",
        "gauss_jacobi_rule": "quadrature.gauss_rule",
    },
    "projconst.geometry": dict.fromkeys(
        ("dim_space", "harmonic_dim", "axial_constant", "surface_area",
         "monomial_moment", "monomial_moment_exact"), "geometry"),
    "projconst.kernels": {
        "kernel_axial_sum": "kernels.sum",
        "kernel_axial_closed": "kernels.closed",
        "kernel_l2_norm": "kernels.l2",
    },
    "projconst.oracle": {
        "gram_basis": "oracle.gram",
        "kernel_bruteforce": "oracle.bruteforce",
        "montecarlo_sphere": "oracle.montecarlo",
    },
}

# work counted at a layer boundary, from the call's arguments and result
_WORK = {
    "jacobi_roots": ("orthopoly.jacobi_roots.roots", lambda args, result: len(result)),
    "dirichlet_lebesgue": (
        "quadrature.dirichlet.arches",
        lambda args, result: 2 * args[0] + 1 if args[1] == "full" else args[0] + 1,
    ),
}


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self._layer_id: dict[str, int] = {}
        self.spans: list[list] = []  # [layer id, start, end, parent index, op]
        self._stack: list[list] = []  # [span index, time covered by children]
        self.op = -1
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op_self_s: defaultdict[str, float] = defaultdict(float)
        self.op_covered_s = 0.0

    def begin_op(self, op: int) -> None:
        self.op = op
        self.op_self_s = defaultdict(float)
        self.op_covered_s = 0.0

    def wrap(self, layer: str, fn, work=None):
        layer_id = self._layer_id.setdefault(layer, len(self._layer_id))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        clock = time.perf_counter
        spans, stack = self.spans, self._stack
        tol_error = sys.modules["projconst.errors"].ToleranceError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            start = clock()
            spans.append([layer_id, start, 0.0, parent, self.op])
            stack.append([index, 0.0])
            self.counts[f"{layer}.calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(layer, start, clock())
                self.counts[f"{layer}.failed"] += 1
                if isinstance(exc, tol_error):
                    self.counts[f"{layer}.tol_fail"] += 1
                raise
            self._close(layer, start, clock())
            if work is not None:
                self.counts[work[0]] += work[1](args, result)
            return result

        return traced

    def _close(self, layer: str, start: float, end: float) -> None:
        index, children = self._stack.pop()
        self.spans[index][2] = end
        duration = end - start
        self.self_s[layer] += duration - children
        self.op_self_s[layer] += duration - children
        self.total_s[layer] += duration
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.op_covered_s += duration

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            json.dump({"fields": ["layer", "start", "end", "parent", "op"],
                       "layers": self.layers, "spans": self.spans}, out)


def install(tracer: Tracer) -> None:
    """Route every traced function, and each verify check group, through tracer."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "projconst"]
    for module_name, functions in TARGETS.items():
        home = sys.modules[module_name]
        for name, layer in functions.items():
            original = getattr(home, name)
            wrapper = tracer.wrap(layer, original, _WORK.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
    checks = sys.modules["projconst.verify"].CHECKS
    checks[:] = [(group, tracer.wrap(f"verify.{group}", fn)) for group, fn in checks]
