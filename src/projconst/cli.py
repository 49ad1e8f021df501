"""Command-line surface: compute | table | limits | converge | verify | kernel.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 tolerance failure.
The default absolute tolerance comes from the PROJCONST_TOL environment
variable (1e-10 when unset); per-command --tol overrides it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .asymptotics import LimitSpec, convergence_report, limit_constant
from .constants import lambda_complex_homogeneous, lambda_hilbert, projection_constant
from .errors import DomainError, ToleranceError, UnsupportedCombinationError
from .geometry import Family, SpaceId, dim_space
from .kernels import kernel_axial_closed, kernel_axial_sum
from .result import ComputationResult
from .verify import run_checks

CSV_HEADER = "family,n,d,dim,value,abs_err,method"


def _sphere(family: Family):
    return (
        lambda n, d, tol: projection_constant(SpaceId(family, n, d), tol),
        lambda n, d: dim_space(SpaceId(family, n, d)),
    )


# family -> (lambda from (n, d, tol), dim from (n, d))
COMPUTE = {
    **{family.value: _sphere(family) for family in Family},
    "complex-homogeneous": (
        lambda n, d, tol: lambda_complex_homogeneous(n, d),
        lambda n, d: math.comb(n + d - 1, d),
    ),
    "hilbert-real": (lambda n, d, tol: lambda_hilbert(n, "real"), lambda n, d: n),
    "hilbert-complex": (lambda n, d, tol: lambda_hilbert(n, "complex"), lambda n, d: n),
}
FAMILIES = list(COMPUTE)


def _default_tol() -> float:
    raw = os.environ.get("PROJCONST_TOL")
    if raw is None:
        return 1e-10
    try:
        return float(raw)
    except ValueError:
        raise DomainError(f"PROJCONST_TOL is not a float: {raw!r}")


def _emit(family: str, n: int, d: int, dim: int, res: ComputationResult, fmt: str) -> None:
    if fmt == "json":
        line = json.dumps({
            "family": family, "n": n, "d": d, "dim": dim,
            "value": res.value, "abs_err": res.abs_err, "method": res.method,
        })
    elif fmt == "csv":
        line = f"{family},{n},{d},{dim},{res.value!r},{res.abs_err!r},{res.method}"
    else:
        line = (
            f"{family} n={n} d={d} dim={dim}: "
            f"{res.value:.15g} ± {res.abs_err:.3g} [{res.method}]"
        )
    print(line)


def cmd_compute(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    compute, dim = COMPUTE[args.family]
    try:
        res = compute(args.n, args.d, tol)
    except (DomainError, UnsupportedCombinationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance not met: {exc}", file=sys.stderr)
        return 3
    _emit(args.family, args.n, args.d, dim(args.n, args.d), res, args.format)
    return 0


def cmd_table(args) -> int:
    tol = args.tol if args.tol is not None else _default_tol()
    d_min = args.d_min if args.d_min is not None else (1 if args.family != "polyleq" else 0)
    if d_min > args.d_max:
        print("error: d-min exceeds d-max", file=sys.stderr)
        return 2
    if args.format == "csv":
        print(CSV_HEADER)
    compute, dim = COMPUTE[args.family]
    status = 0
    for d in range(d_min, args.d_max + 1):
        try:
            res = compute(args.n, d, tol)
        except (DomainError, UnsupportedCombinationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ToleranceError as exc:
            res = ComputationResult(float("nan"), exc.achieved, "ToleranceFailure")
            status = 3
        _emit(args.family, args.n, d, dim(args.n, d), res, args.format)
    return status


def cmd_limits(args) -> int:
    family = Family(args.family)
    normalization = args.normalization
    if normalization is None:
        normalization = "log_d" if args.n == 2 else "d_power"
    try:
        spec = LimitSpec(family, args.n, normalization)
    except UnsupportedCombinationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    value = limit_constant(spec)
    print(f"{args.family} n={args.n} normalization={normalization}: {value:.15g}")
    return 0


def cmd_converge(args) -> int:
    family = Family(args.family)
    d_values = [int(v) for v in args.d_values.split(",")]
    normalization = args.normalization
    if normalization is None:
        normalization = "log_d" if args.n == 2 else "d_power"
    tol = args.tol if args.tol is not None else _default_tol()
    try:
        spec = LimitSpec(family, args.n, normalization)
        rows, non_monotone = convergence_report(spec, d_values, tol)
    except (UnsupportedCombinationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("d,finite_ratio,limit,deviation")
    for row in rows:
        print(f"{row.d},{row.finite_ratio!r},{row.limit!r},{row.deviation!r}")
    if non_monotone:
        print("warning: |deviation| not monotonically decreasing", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(
        seed=args.seed, quick=args.quick, inject_fault=args.inject_fault, timed=args.explain
    )
    n_failures = 0
    for result in results:
        for failure in result.failures:
            n_failures += 1
            print(json.dumps(failure))
        if args.explain:
            print(json.dumps({"group": result.check_id, "failures": len(result.failures),
                              "wall_s": result.wall_s}), file=sys.stderr)
    print(f"verify: {len(results)} check groups, {n_failures} failures (seed={args.seed})")
    return 1 if n_failures else 0


def cmd_kernel(args) -> int:
    if args.samples < 2:
        print("error: need at least 2 samples", file=sys.stderr)
        return 2
    try:
        space = SpaceId(Family(args.family), args.n, args.d)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ts = np.linspace(-1.0, 1.0, args.samples)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            k_sum = kernel_axial_sum(space, ts)
            k_closed = kernel_axial_closed(space, ts)
    except OverflowError:  # a harmonic dimension beyond the float range
        k_sum = k_closed = np.full_like(ts, np.inf)
    if not np.isfinite([k_sum, k_closed]).all():
        print(f"tolerance not met: kernel overflows double precision at n={args.n}, d={args.d}",
              file=sys.stderr)
        return 3
    if args.format == "csv":
        print("t,k_sum,k_closed")
    for t, a, b in zip(ts, k_sum, k_closed):
        if args.format == "json":
            print(json.dumps({"t": float(t), "k_sum": float(a), "k_closed": float(b)}))
        else:
            print(f"{float(t)!r},{float(a)!r},{float(b)!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projconst",
        description="Projection constants of harmonic and polynomial spaces on spheres.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, families=FAMILIES, with_d=True):
        p.add_argument("--family", required=True, choices=families)
        p.add_argument("--n", required=True, type=int)
        if with_d:
            p.add_argument("--d", required=True, type=int)

    p = sub.add_parser("compute", help="one projection constant")
    add_common(p)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("table", help="a column of constants over a degree range")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d-max", required=True, type=int)
    p.add_argument("--d-min", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="csv")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("limits", help="closed-form limit constant")
    p.add_argument("--family", required=True, choices=["harmonic", "homogeneous", "polyleq"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--normalization", choices=["dim_sqrt", "d_power", "log_d"], default=None)
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("converge", help="finite-degree convergence diagnostics")
    p.add_argument("--family", required=True, choices=["harmonic", "homogeneous", "polyleq"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d-values", required=True, help="comma-separated increasing degrees")
    p.add_argument("--normalization", choices=["dim_sqrt", "d_power", "log_d"], default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--explain", action="store_true",
                   help="write each check group's failure count and wall time to stderr as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("kernel", help="sample both kernel representations on a grid")
    p.add_argument("--family", required=True, choices=["harmonic", "homogeneous", "polyleq"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(fn=cmd_kernel)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
