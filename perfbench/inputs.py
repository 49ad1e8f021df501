"""Everything the benchmark workloads can draw, in one place.

`make_reference.py` computes a reference value for every key listed here, and
the workloads draw their inputs only from these sets, so every output the
benchmark sees has a committed reference.
"""

from __future__ import annotations

FAMILIES = ("harmonic", "homogeneous", "polyleq")

# jacobi_sweep: d is log-uniform over 8..1600, stratified into seven levels.
# A cell of one of the five lower levels draws d from the eight consecutive
# degrees starting at its level value; a wider draw moved the median latency
# by 30% between seeds, since the median falls among the d ~ 113 cells. The
# two top levels keep their level value: an mpmath reference there takes 5
# to 25 s, and a drawn d would change the batch time by up to a factor of two.
JACOBI_N = (3, 4, 5, 10, 20, 50)
JACOBI_D = tuple(round(8 * 200 ** (k / 6)) for k in range(7))
JACOBI_FIXED_LEVELS = 2
JACOBI_WIDTH = 8
# n = 50 meets the default tolerance only up to d ~ 80: lambda raises
# ToleranceError from the fourth level (d = 113) on, for every family. Cells
# of those levels take another n instead, and the traced run counts the
# errors on the probes below, one per family at the fourth and fifth level.
JACOBI_N50_LEVELS = 3
TOL_PROBES = tuple((family, 50, JACOBI_D[k]) for k in (3, 4) for family in FAMILIES)


def jacobi_candidates(level: int) -> list[int]:
    """The degrees a cell of level index `level` can draw."""
    d = JACOBI_D[level]
    if level >= len(JACOBI_D) - JACOBI_FIXED_LEVELS:
        return [d]
    return list(range(d, d + JACOBI_WIDTH))


def jacobi_n(level: int) -> tuple[int, ...]:
    """The n a cell of level index `level` can take."""
    return JACOBI_N if level < JACOBI_N50_LEVELS else JACOBI_N[:-1]

# circle_n2: d is log-uniform over 1e3..1e5 in eight strata; each stratum
# offers 16 consecutive degrees (8 even, 8 odd) ending at its level. lambda
# costs about one unit per arch: d + 1 for homogeneous (half kind), 2d + 1
# for polyleq (full kind). Levels a factor 100^(1/7) = 1.93 apart make a
# polyleq op cost within 4% of a homogeneous op of the next level, so the
# median and the tail fall between two ops of nearly equal cost. With nine
# levels the median fell between groups 1.6 times apart in cost and moved
# by 15% between runs.
CIRCLE_LEVELS = tuple(round(10 ** (3 + 2 * k / 7)) for k in range(8))
CIRCLE_WIDTH = 16


def circle_candidates(level: int) -> list[int]:
    return list(range(level - CIRCLE_WIDTH + 1, level + 1))


# verify_suite and cli_mix: `projconst verify` seeds. A workload must have no
# failing operation, so the seeds come from a range on which `verify` and
# `verify --quick` pass at this commit; about 0.35% of seeds in general fail
# gamma.recurrence at its 1e-13 tolerance (seed 924406 is one).
VERIFY_SEEDS = tuple(range(100))

# cli_mix: small instances of every subcommand.
CLI_N = (2, 3, 4, 5)
CLI_D = tuple(range(0, 9))
COMPLEX_N = (1, 2, 3, 4, 5)
HILBERT_N = tuple(range(1, 9))
LIMIT_N = tuple(range(3, 9))
TABLE_D_MAX = 20
CONVERGE_N = (3, 4, 5)
CONVERGE_D = (8, 16, 32, 64)
KERNEL_N = (3, 4, 5)
KERNEL_D = (3, 6, 9)
KERNEL_SAMPLES = 101


def kernel_grid() -> list[float]:
    """The sample points `projconst kernel --samples 101` uses."""
    import numpy as np

    return [float(t) for t in np.linspace(-1.0, 1.0, KERNEL_SAMPLES)]


def lambda_key(family: str, n: int, d: int | None = None) -> str:
    return f"{family}/{n}" if d is None else f"{family}/{n}/{d}"


def min_degree(family: str) -> int:
    return 1 if family == "homogeneous" else 0


def lambda_keys() -> list[tuple[str, int, int | None]]:
    """Every (family, n, d) whose projection constant a workload can request."""
    keys = set()
    for family in FAMILIES:
        for level in range(len(JACOBI_D)):
            keys.update((family, n, d) for n in jacobi_n(level) for d in jacobi_candidates(level))
        small = set(range(min_degree(family), TABLE_D_MAX + 1)) | set(CONVERGE_D)
        for n in CLI_N:
            keys.update((family, n, d) for d in small)
    for level in CIRCLE_LEVELS:
        for d in circle_candidates(level):
            keys.add(("homogeneous", 2, d))
            keys.add(("polyleq", 2, d))
    keys.update(TOL_PROBES)
    keys.update(("complex-homogeneous", n, d) for n in COMPLEX_N for d in CLI_D)
    keys.update(("hilbert-real", n, None) for n in HILBERT_N)
    keys.update(("hilbert-complex", n, None) for n in HILBERT_N)
    return sorted(keys, key=lambda k: (k[0], k[1], -1 if k[2] is None else k[2]))


def limit_keys() -> list[tuple[str, int]]:
    return [(family, n) for family in FAMILIES for n in sorted(set(LIMIT_N) | set(CONVERGE_N))]


def kernel_keys() -> list[tuple[str, int, int]]:
    return [(family, n, d) for family in FAMILIES for n in KERNEL_N for d in KERNEL_D]
