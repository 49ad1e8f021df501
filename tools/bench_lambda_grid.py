"""Time lambda's two layers, root finding and the arch sum, on a fixed grid.

For each family x n in {3, 10, 50} x d in {100, 400, 1600, 5000} this calls
quadrature.integrate_abs_kernel directly (n = 50 fails the default tol from
d ~ 80 on, so the constants layer would refuse it), once with the roots of
orthopoly.jacobi_roots, the route lambda uses ("kernel_roots"), and once
with its Newton route switched off, so that every root set is the
recurrence matrix's eigenvalues (`_recurrence_eigenvalues`, "eigen"). Each
time is the median of RUNS calls, the two routes alternating: the roots
alone, the arch sum alone (integrate_abs_kernel given the precomputed
roots), and the whole call. `newton_route` says whether jacobi_roots kept
its Newton roots. Prints one JSON object with the grid and the machine;
BLAS runs one thread.

On stderr it then lists every time that is more than 20% slower than the
same cell's in the newest BENCH_*.json of the repo root that holds a grid
when the run starts (the file the shell has just created for the redirect
is still empty then, so it is skipped).

    PYTHONPATH=src python tools/bench_lambda_grid.py > BENCH_<n>.json
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from projconst import orthopoly, quadrature  # noqa: E402
from projconst.geometry import FAMILY_TABLE, Family, SpaceId  # noqa: E402
from projconst.orthopoly import JacobiParams  # noqa: E402

NS = (3, 10, 50)
DS = (100, 400, 1600, 5000)
RUNS = 5
ROUTES = ("eigen", "kernel_roots")
PARTS = ("roots", "arch", "lambda")
ROOT = Path(__file__).resolve().parents[1]
SLOWER = 1.2


def _elapsed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@contextmanager
def _patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


def _route(route: str):
    """The eigenvalue route switches jacobi_roots' Newton route off."""
    if route == "eigen":
        return _patched(orthopoly, "_newton_roots", lambda *args: None)
    return nullcontext()


def _route_taken(params: JacobiParams) -> str:
    """'newton' if jacobi_roots keeps its Newton roots, else 'eigen'."""
    results = []
    newton = orthopoly._newton_roots

    def recording(*args):
        results.append(newton(*args))
        return results[-1]

    with _patched(orthopoly, "_newton_roots", recording):
        orthopoly.jacobi_roots(params)
    return "eigen" if results[-1] is None else "newton"


def _cell(family: Family, n: int, d: int) -> dict:
    space = SpaceId(family, n, d)
    params = JacobiParams(*FAMILY_TABLE[family].jacobi(n), d)
    roots = {}
    for route in ROUTES:
        with _route(route):
            roots[route] = orthopoly.jacobi_roots(params)
    times = {(route, part): [] for route in ROUTES for part in PARTS}
    # the two routes alternate run by run, so drift of the machine hits both
    for _ in range(RUNS):
        for route in ROUTES:
            with _route(route):
                times[route, "roots"].append(_elapsed(lambda: orthopoly.jacobi_roots(params)))
                with _patched(quadrature, "jacobi_roots", lambda _: roots[route]):
                    times[route, "arch"].append(_elapsed(lambda: quadrature.integrate_abs_kernel(space)))
                times[route, "lambda"].append(_elapsed(lambda: quadrature.integrate_abs_kernel(space)))
    cell = {"family": family.value, "n": n, "d": d, "newton_route": _route_taken(params)}
    for route in ROUTES:
        cell[route] = {f"{part}_ms": round(statistics.median(times[route, part]) * 1e3, 3) for part in PARTS}
    cell["speedup"] = round(cell["eigen"]["lambda_ms"] / cell["kernel_roots"]["lambda_ms"], 3)
    return cell


def _previous() -> tuple[str, dict] | None:
    """(name, content) of the highest-numbered BENCH_*.json that holds a grid."""
    numbered = []
    for path in ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    for _, path in sorted(numbered, reverse=True):
        try:
            content = json.loads(path.read_text())
        except ValueError:
            continue
        if "grid" in content:
            return path.name, content
    return None


def _report_slower(grid: list[dict], previous: tuple[str, dict] | None) -> None:
    if previous is None:
        print("no earlier BENCH_*.json with a grid to compare with", file=sys.stderr)
        return
    name, content = previous
    before = {(c["family"], c["n"], c["d"]): c for c in content["grid"]}
    slower = 0
    for cell in grid:
        old = before.get((cell["family"], cell["n"], cell["d"]))
        if old is None:
            continue
        for route in ROUTES:
            for part in PARTS:
                key = f"{part}_ms"
                was, now = old.get(route, {}).get(key), cell[route][key]
                if was and now > SLOWER * was:
                    slower += 1
                    print(f"{cell['family']} n={cell['n']} d={cell['d']} {route}.{key}: "
                          f"{was} -> {now} ms (+{100 * (now / was - 1):.0f}%)", file=sys.stderr)
    print(f"{slower} times more than {100 * (SLOWER - 1):.0f}% slower than in {name}", file=sys.stderr)


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
    previous = _previous()
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
    _report_slower(grid, previous)


if __name__ == "__main__":
    main()
