"""The four workloads: how each draws its inputs, runs one operation and checks it.

Every workload is a closed loop with one client. Inputs come in batches; each
batch is a stratified draw from the workload's input space (see inputs.py),
so the work in a batch barely depends on the seed. In the lambda workloads,
later batches of a run reuse no input of earlier ones until the draw space is
used up.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import inputs
from gate import Gate, close, dim

HERE = Path(__file__).resolve().parent

LAMBDA_FUNCTIONS = {
    "harmonic": "lambda_harmonic",
    "homogeneous": "lambda_homogeneous",
    "polyleq": "lambda_poly_leq",
}


class OpFailed(Exception):
    """The program reported failure the documented way: a ProjconstError, or
    exit code 1 (verification failure) or 3 (tolerance not met)."""


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple
    d: int | None = None  # degree, for the layers' d-exponent fit


def timed_imports() -> dict:
    """Import what projconst imports, timing numpy, scipy and the rest."""
    import time

    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401

    t2 = time.perf_counter()
    import projconst.cli  # noqa: F401

    t3 = time.perf_counter()
    return {"import_s": t3 - t0, "import_scipy_s": t2 - t1}


class Workload:
    name = ""
    in_process = True

    def __init__(self, root: Path, seed: int, gate: Gate):
        self.root = root
        self.seed = seed
        self.gate = gate
        self.imports: dict = {}

    def setup(self) -> None:
        self.imports = timed_imports()
        self.warm_up()

    def warm_up(self) -> None:
        raise NotImplementedError

    def batch(self, index: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, output) -> bool:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        return []

    def rng(self, *tags) -> random.Random:
        return random.Random("/".join(str(t) for t in (self.name, self.seed, *tags)))


class _LambdaWorkload(Workload):
    def execute(self, op: Op):
        import projconst.constants
        from projconst.errors import ProjconstError

        family, n, d = op.args
        try:
            return getattr(projconst.constants, LAMBDA_FUNCTIONS[family])(n, d).value
        except ProjconstError as exc:
            raise OpFailed(f"{type(exc).__name__}: {exc}") from exc

    def check(self, op: Op, output) -> bool:
        return self.gate.lambda_ok(*op.args, output)

    @staticmethod
    def op(family: str, n: int, d: int) -> Op:
        return Op(f"{family} n={n} d={d}", (family, n, d), d)


class JacobiSweep(_LambdaWorkload):
    """lambda for n >= 3 over d 8..1600 and n up to 50: the Jacobi path, root
    finding plus arch sums."""

    name = "jacobi_sweep"

    def warm_up(self) -> None:
        for family in inputs.FAMILIES:
            self.execute(self.op(family, 3, inputs.JACOBI_D[0]))

    def batch(self, index: int) -> list[Op]:
        # Six cells per level, so the median falls among the d ~ 113 cells
        # and the tail among the d = 1600 ones. The family follows a fixed
        # Latin pattern: two cells per family and level, and batch b + 1
        # gives every cell the next family. Where n = 50 raises
        # ToleranceError its cell takes, in turn from batch to batch, an n
        # whose own cell has another family. The degrees of a level are dealt
        # from one seeded permutation of its candidates, so consecutive
        # batches use them evenly.
        cells = len(inputs.JACOBI_N)
        ops = []
        for k in range(len(inputs.JACOBI_D)):
            degrees = inputs.jacobi_candidates(k)
            self.rng("level", k).shuffle(degrees)
            ns = inputs.jacobi_n(k)
            for i in range(cells):
                if i < len(ns):
                    n = ns[i]
                else:
                    others = [m for m in range(len(ns)) if (m - i) % 3]
                    n = ns[others[(k + index) % len(others)]]
                family = inputs.FAMILIES[(i + k + index) % 3]
                ops.append(self.op(family, n, degrees[(index * cells + i) % len(degrees)]))
        self.rng(index).shuffle(ops)
        return ops

    def probes(self) -> list[Op]:
        """Calls that raise ToleranceError at this commit, for the traced run."""
        return [self.op(*key) for key in inputs.TOL_PROBES]


class CircleN2(_LambdaWorkload):
    """lambda for n = 2, d 1e3..1e5, both Dirichlet kinds and parities:
    dirichlet_lebesgue only, no Jacobi root finding."""

    name = "circle_n2"

    def warm_up(self) -> None:
        # the largest arrays first, so the allocator has grown before timing
        for family in ("homogeneous", "polyleq"):
            self.execute(self.op(family, 2, inputs.CIRCLE_LEVELS[-1]))

    def batch(self, index: int) -> list[Op]:
        # One even and one odd degree per stratum, each with both kinds.
        ops = []
        for level in inputs.CIRCLE_LEVELS:
            candidates = inputs.circle_candidates(level)
            for parity in (0, 1):
                pool = [d for d in candidates if d % 2 == parity]
                self.rng(level, parity).shuffle(pool)
                d = pool[index % len(pool)]
                ops += [self.op("homogeneous", 2, d), self.op("polyleq", 2, d)]
        self.rng(index).shuffle(ops)
        return ops


class VerifySuite(Workload):
    """Full `projconst verify --seed S` in-process: the only workload where
    kernels and the exact-rational oracle dominate."""

    name = "verify_suite"

    def warm_up(self) -> None:
        self._verify(["verify", "--quick", "--seed", "0"])

    def batch(self, index: int) -> list[Op]:
        seeds = list(inputs.VERIFY_SEEDS)
        self.rng().shuffle(seeds)
        seed = seeds[index % len(seeds)]
        return [Op(f"verify --seed {seed}", (seed,))]

    @staticmethod
    def _verify(argv: list[str]) -> tuple[int, str]:
        import projconst.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = projconst.cli.main(argv)
        return code, out.getvalue()

    def execute(self, op: Op):
        code, stdout = self._verify(["verify", "--seed", str(op.args[0])])
        if code == 1:
            raise OpFailed(stdout.strip().splitlines()[0])
        return stdout

    def check(self, op: Op, output) -> bool:
        return self.gate.verify_ok(output, op.args[0])


class CliMix(Workload):
    """One-shot `projconst` processes over every subcommand at small sizes:
    start-up and import cost dominate."""

    name = "cli_mix"
    in_process = False

    def __init__(self, root: Path, seed: int, gate: Gate):
        super().__init__(root, seed, gate)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.trace_dir: Path | None = None  # set by the traced run
        self.children: list[dict] = []

    def setup(self) -> None:
        self.warm_up()

    def warm_up(self) -> None:
        self.execute(Op("compute", ("compute", "--family", "harmonic", "--n", "3", "--d", "2")))
        self.children.clear()

    def batch(self, index: int) -> list[Op]:
        rng = self.rng(index)
        ops = []
        for family in (*inputs.FAMILIES, "complex-homogeneous", "hilbert-real", "hilbert-complex"):
            if family in inputs.FAMILIES:
                n = rng.choice(inputs.CLI_N)
                d = rng.choice([d for d in inputs.CLI_D if d >= inputs.min_degree(family)])
            elif family == "complex-homogeneous":
                n, d = rng.choice(inputs.COMPLEX_N), rng.choice(inputs.CLI_D)
            else:
                n, d = rng.choice(inputs.HILBERT_N), 1
            ops.append(self._op("compute", "--family", family, "--n", n, "--d", d, "--format", "json"))
        ops.append(self._op("limits", "--family", rng.choice(inputs.FAMILIES), "--n", rng.choice(inputs.LIMIT_N)))
        ops.append(self._op("kernel", "--family", rng.choice(inputs.FAMILIES), "--n", rng.choice(inputs.KERNEL_N),
                            "--d", rng.choice(inputs.KERNEL_D), "--samples", inputs.KERNEL_SAMPLES))
        ops.append(self._op("table", "--family", rng.choice(inputs.FAMILIES), "--n", rng.choice(inputs.CLI_N),
                            "--d-max", inputs.TABLE_D_MAX))
        ops.append(self._op("converge", "--family", rng.choice(inputs.FAMILIES), "--n", rng.choice(inputs.CONVERGE_N),
                            "--d-values", ",".join(map(str, inputs.CONVERGE_D))))
        ops.append(self._op("verify", "--quick", "--seed", rng.choice(inputs.VERIFY_SEEDS)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _op(*argv) -> Op:
        argv = tuple(str(a) for a in argv)
        return Op(" ".join(argv), argv)

    def execute(self, op: Op):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "projconst", *op.args]
            summary = None
        else:
            summary = self.trace_dir / f"child-{len(self.children)}.json"
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"), str(summary), *op.args]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=150)
        if summary is not None:
            record = json.loads(summary.read_text())
            summary.unlink()
            record.update(parse_importtime(proc.stderr))
            self.children.append(record)
        if proc.returncode == 1:
            raise OpFailed(proc.stdout.strip().splitlines()[0])
        if proc.returncode == 3:
            raise OpFailed(proc.stderr.strip().splitlines()[-1])
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return proc.stdout

    def check(self, op: Op, output) -> bool:
        args, tokens = {}, list(op.args[1:])
        while tokens:
            flag = tokens.pop(0)
            args[flag] = tokens.pop(0) if tokens and not tokens[0].startswith("--") else ""
        try:
            return getattr(self, f"_check_{op.args[0]}")(args, output.splitlines(), output)
        except (ValueError, KeyError, IndexError, TypeError):
            return False

    def _check_compute(self, args, lines, _):
        family, n, d = args["--family"], int(args["--n"]), int(args["--d"])
        record = json.loads(lines[0])
        return (len(lines) == 1 and record["family"] == family and record["n"] == n
                and record["dim"] == dim(family, n, d) and close(record["value"], self.gate.lam(family, n, d)))

    def _check_limits(self, args, lines, _):
        family, n = args["--family"], int(args["--n"])
        head, value = lines[0].rsplit(": ", 1)
        return (len(lines) == 1 and head == f"{family} n={n} normalization=d_power"
                and close(float(value), self.gate.limit(family, n)))

    def _check_kernel(self, args, lines, _):
        family, n, d = args["--family"], int(args["--n"]), int(args["--d"])
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        return lines[0] == "t,k_sum,k_closed" and all(
            self.gate.kernel_ok(family, n, d, [r[0] for r in rows], [r[col] for r in rows]) for col in (1, 2)
        )

    def _check_table(self, args, lines, _):
        family, n = args["--family"], int(args["--n"])
        degrees = list(range(0 if family == "polyleq" else 1, int(args["--d-max"]) + 1))
        if lines[0] != "family,n,d,dim,value,abs_err,method" or len(lines) != len(degrees) + 1:
            return False
        for d, line in zip(degrees, lines[1:]):
            fam, n_out, d_out, dim_out, value = line.split(",")[:5]
            if (fam, int(n_out), int(d_out), int(dim_out)) != (family, n, d, dim(family, n, d)):
                return False
            if not close(float(value), self.gate.lam(family, n, d)):
                return False
        return True

    def _check_converge(self, args, lines, _):
        family, n = args["--family"], int(args["--n"])
        degrees = [int(x) for x in args["--d-values"].split(",")]
        limit = self.gate.limit(family, n)
        if lines[0] != "d,finite_ratio,limit,deviation" or len(lines) != len(degrees) + 1:
            return False
        for d, line in zip(degrees, lines[1:]):
            d_out, ratio, lim, dev = line.split(",")
            expected = self.gate.lam(family, n, d) / d ** ((n - 2) / 2.0)
            if int(d_out) != d or not close(float(ratio), expected) or not close(float(lim), limit):
                return False
            if abs(float(dev) - (expected - limit)) > 1e-8 * (abs(expected) + abs(limit)):
                return False
        return True

    def _check_verify(self, args, _, output):
        return self.gate.verify_ok(output, int(args["--seed"]))


def parse_importtime(stderr: str) -> dict:
    """Seconds importing projconst, and the part of it spent importing scipy.

    `-X importtime` lists modules children-first, indented by depth; each
    line carries the cumulative time of the module's subtree. Top-level
    projconst entries give the import time; scipy modules whose parent is
    not a scipy module give the scipy share.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    import_s = scipy_s = 0.0
    stack: list[tuple[int, bool]] = []  # (depth, inside scipy), parents first
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent_in_scipy = bool(stack) and stack[-1][1]
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not parent_in_scipy:
            scipy_s += cumulative
        if depth == 0 and name.split(".")[0] == "projconst":
            import_s += cumulative
        stack.append((depth, parent_in_scipy or is_scipy))
    return {"import_s": import_s, "import_scipy_s": scipy_s}


WORKLOADS = {w.name: w for w in (JacobiSweep, CircleN2, CliMix, VerifySuite)}
