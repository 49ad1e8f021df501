"""Time lambda's two layers, root finding and the arch sum, on a fixed grid.

For each family x n in {3, 10, 50} x d in {100, 400, 1600, 5000} this calls
quadrature.integrate_abs_kernel directly (n = 50 fails the default tol from
d ~ 80 on, so the constants layer would refuse it), once with the roots from
the recurrence matrix's eigenvalues (orthopoly._eigen_roots) and once with
orthopoly._kernel_roots, the route lambda uses. Each time is the median of
RUNS calls, the two routes alternating: the roots alone, the arch sum alone (integrate_abs_kernel given
the precomputed roots), and the whole call. Prints one JSON object with the
grid and the machine; BLAS runs one thread.

    PYTHONPATH=src python tools/bench_lambda_grid.py > BENCH_<pr>.json
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from projconst import orthopoly, quadrature  # noqa: E402
from projconst.geometry import FAMILY_TABLE, Family, SpaceId  # noqa: E402

NS = (3, 10, 50)
DS = (100, 400, 1600, 5000)
RUNS = 5


def _elapsed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@contextmanager
def _roots_from(fn):
    """Let integrate_abs_kernel take its roots from fn."""
    saved = quadrature._kernel_roots
    quadrature._kernel_roots = fn
    try:
        yield
    finally:
        quadrature._kernel_roots = saved


def _route_taken(alpha: float, beta: float, d: int) -> str:
    """'newton' if _kernel_roots keeps its Newton roots, else 'eigen'."""
    fell_back = []
    saved = orthopoly._eigen_roots
    orthopoly._eigen_roots = lambda *args: fell_back.append(args) or saved(*args)
    try:
        orthopoly._kernel_roots(alpha, beta, d)
    finally:
        orthopoly._eigen_roots = saved
    return "eigen" if fell_back else "newton"


def _cell(family: Family, n: int, d: int) -> dict:
    space = SpaceId(family, n, d)
    alpha, beta = FAMILY_TABLE[family].jacobi(n)
    routes = {"eigen": orthopoly._eigen_roots, "kernel_roots": orthopoly._kernel_roots}
    roots = {route: fn(alpha, beta, d) for route, fn in routes.items()}
    times = {(route, part): [] for route in routes for part in ("roots", "arch", "lambda")}
    # the two routes alternate run by run, so drift of the machine hits both
    for _ in range(RUNS):
        for route, fn in routes.items():
            times[route, "roots"].append(_elapsed(lambda: fn(alpha, beta, d)))
            with _roots_from(lambda *args: roots[route]):
                times[route, "arch"].append(_elapsed(lambda: quadrature.integrate_abs_kernel(space)))
            with _roots_from(fn):
                times[route, "lambda"].append(_elapsed(lambda: quadrature.integrate_abs_kernel(space)))
    cell = {"family": family.value, "n": n, "d": d,
            "newton_route": _route_taken(alpha, beta, d)}
    for route in routes:
        cell[route] = {f"{part}_ms": round(statistics.median(times[route, part]) * 1e3, 3)
                       for part in ("roots", "arch", "lambda")}
    cell["speedup"] = round(cell["eigen"]["lambda_ms"] / cell["kernel_roots"]["lambda_ms"], 3)
    return cell


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    quadrature.integrate_abs_kernel(SpaceId(Family.POLY_LEQ, 3, 1600))  # imports, caches
    grid = [_cell(family, n, d) for family in Family for n in NS for d in DS]
    machine = {
        "cpu": _cpu_model(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": 1,
    }
    json.dump({"runs": RUNS, "unit": "ms, median", "machine": machine,
               "newton_min_rows": orthopoly._NEWTON_MIN_ROWS, "grid": grid},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
