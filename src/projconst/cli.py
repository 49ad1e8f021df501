"""Command-line surface: compute | table | limits | converge | verify | kernel.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 tolerance failure;
`main` alone maps errors to them. The default absolute tolerance comes from the
PROJCONST_TOL environment variable (constants.DEFAULT_TOL when unset);
per-command --tol overrides it. `_tol` validates it for every family before
anything is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .asymptotics import LimitSpec, convergence_report, limit_constant
from .constants import DEFAULT_TOL, lambda_complex_homogeneous, lambda_hilbert, projection_constant
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
SPHERE_FAMILIES = [family.value for family in Family]


def _tol(args) -> float:
    tol = args.tol
    if tol is None:
        raw = os.environ.get("PROJCONST_TOL")
        try:
            tol = DEFAULT_TOL if raw is None else float(raw)
        except ValueError:
            raise DomainError(f"PROJCONST_TOL is not a float: {raw!r}") from None
    if not tol > 0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    return tol


def _normalization(args) -> str:
    if args.normalization is not None:
        return args.normalization
    return "log_d" if args.n == 2 else "d_power"


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
    tol = _tol(args)
    if args.d < 0:  # hilbert-* ignore d; the other families reject it too
        raise DomainError(f"need d >= 0, got {args.d}")
    compute, dim = COMPUTE[args.family]
    res = compute(args.n, args.d, tol)
    _emit(args.family, args.n, args.d, dim(args.n, args.d), res, args.format)
    return 0


def cmd_table(args) -> int:
    tol = _tol(args)
    d_min = args.d_min if args.d_min is not None else (1 if args.family != "polyleq" else 0)
    if d_min < 0:
        raise DomainError(f"need d >= 0, got {d_min}")
    if d_min > args.d_max:
        raise DomainError("d-min exceeds d-max")
    compute, dim = COMPUTE[args.family]
    status = 0
    for d in range(d_min, args.d_max + 1):
        try:
            res = compute(args.n, d, tol)
        except ToleranceError as exc:
            res = ComputationResult(float("nan"), exc.achieved, "ToleranceFailure")
            status = 3
        # after the first row's computation, so a usage error leaves stdout empty
        if d == d_min and args.format == "csv":
            print(CSV_HEADER)
        _emit(args.family, args.n, d, dim(args.n, d), res, args.format)
    return status


def cmd_limits(args) -> int:
    normalization = _normalization(args)
    value = limit_constant(LimitSpec(Family(args.family), args.n, normalization))
    print(f"{args.family} n={args.n} normalization={normalization}: {value:.15g}")
    return 0


def cmd_converge(args) -> int:
    try:
        d_values = [int(v) for v in args.d_values.split(",")]
    except ValueError:
        raise DomainError(f"--d-values must be comma-separated integers, got {args.d_values!r}") from None
    tol = _tol(args)
    spec = LimitSpec(Family(args.family), args.n, _normalization(args))
    rows, non_monotone = convergence_report(spec, d_values, tol)
    print("d,finite_ratio,limit,deviation")
    for row in rows:
        print(f"{row.d},{row.finite_ratio!r},{row.limit!r},{row.deviation!r}")
    if non_monotone:
        print("warning: |deviation| not monotonically decreasing", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(seed=args.seed, quick=args.quick, timed=args.explain)
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
        raise DomainError("need at least 2 samples")
    space = SpaceId(Family(args.family), args.n, args.d)
    ts = np.linspace(-1.0, 1.0, args.samples)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            k_sum = kernel_axial_sum(space, ts)
            k_closed = kernel_axial_closed(space, ts)
        finite = np.isfinite([k_sum, k_closed]).all()
    except OverflowError:  # a harmonic dimension beyond the float range
        finite = False
    if not finite:
        raise ToleranceError(f"kernel overflows double precision at n={args.n}, d={args.d}",
                             value=math.inf, achieved=math.inf)
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
    add_common(p, with_d=False)
    p.add_argument("--d-max", required=True, type=int)
    p.add_argument("--d-min", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="csv")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("limits", help="closed-form limit constant")
    add_common(p, SPHERE_FAMILIES, with_d=False)
    p.add_argument("--normalization", choices=["dim_sqrt", "d_power", "log_d"], default=None)
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("converge", help="finite-degree convergence diagnostics")
    add_common(p, SPHERE_FAMILIES, with_d=False)
    p.add_argument("--d-values", required=True, help="comma-separated increasing degrees")
    p.add_argument("--normalization", choices=["dim_sqrt", "d_power", "log_d"], default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--explain", action="store_true",
                   help="write each check group's failure count and wall time to stderr as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("kernel", help="sample both kernel representations on a grid")
    add_common(p, SPHERE_FAMILIES)
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(fn=cmd_kernel)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DomainError, UnsupportedCombinationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToleranceError as exc:
        print(f"tolerance not met: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
