"""projconst benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload jacobi_sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25   # every metric of every workload

Run from the repository root; the library is imported from ./src. The last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Lines before it give machine info, every metric with its unit and
the details behind the tail percentile and the failure count. The full record
(and, when traced, the spans) goes to perfbench/results/.
"""

import time

_T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# One BLAS/OpenMP thread: the loop is a single client and the machine is shared.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SETUP_SAMPLES = 3  # this process plus two fresh processes doing only set-up

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_frac": "ratio",
    "peak_rss_mb": "MB",
}

SELF_LAYERS = ("orthopoly.jacobi_roots", "orthopoly.eval", "quadrature.abs_jacobi",
               "quadrature.dirichlet", "quadrature.gauss_rule", "constants", "gammafn",
               "kernels.sum", "kernels.closed", "kernels.l2", "geometry",
               "oracle.gram", "oracle.bruteforce", "oracle.montecarlo")
# tracer counters, reported per operation
COUNTS = ("orthopoly.jacobi_roots.calls", "orthopoly.jacobi_roots.roots", "quadrature.abs_jacobi.calls",
          "quadrature.dirichlet.calls", "quadrature.dirichlet.arches",
          "quadrature.gauss_rule.calls", "constants.calls", "gammafn.calls")
VERIFY_GROUPS = ("gamma", "orthopoly", "quadrature", "geometry", "kernels", "constants", "oracle")
D_EXPONENT_LAYERS = ("orthopoly.jacobi_roots", "quadrature.abs_jacobi")


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s/op" for layer in SELF_LAYERS}
    units.update({name: "count/op" for name in COUNTS})
    units["quadrature.abs_jacobi.tol_fail"] = "count"
    units.update({f"verify.{group}_s": "s/op" for group in VERIFY_GROUPS})
    units.update({"cli.import_s": "s", "cli.import_scipy_s": "s", "cli.work_s": "s"})
    units.update({f"{layer}.d_exponent": "1" for layer in D_EXPONENT_LAYERS})
    units.update({"trace.overhead": "ratio", "trace.coverage": "ratio"})
    return units


def machine_info(args) -> dict:
    def version(package):
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpuinfo = Path("/proc/cpuinfo")
    models = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
              if line.startswith("model name")] if cpuinfo.exists() else []
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "cpu": models[0] if models else platform.processor(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(samples: list[float]) -> dict:
    """The highest percentile with at least ten samples above it (else the max)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return {"value": ordered[-1], "percentile": 100.0, "beyond": 0, "samples": n}
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "beyond": 10, "samples": n}


def slope(pairs: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds) against log(d); 0 without two distinct d."""
    pts = [(math.log(d), math.log(s)) for d, s in pairs if d and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)


class Phase:
    """Runs whole batches, starting another while less than `seconds` of timed
    work has been done, or a given number of batches."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.records: list[dict] = []

    def run(self, seconds: float = 0.0, batches: int | None = None) -> int:
        done, spent = 0, 0.0
        while (done < batches) if batches is not None else (done == 0 or spent < seconds):
            spent += sum(self.run_op(op) for op in self.workload.batch(done))
            done += 1
        return done

    def run_op(self, op) -> float:
        from workloads import OpFailed

        if self.tracer is not None:
            self.tracer.begin_op(len(self.records))
        start = time.perf_counter()
        try:
            output = self.workload.execute(op)
            status = None
        except OpFailed as exc:
            output, status = None, f"failed: {exc}"
        except Exception:  # a crash is a wrong answer, not a refusal
            output, status = None, "wrong: " + traceback.format_exc(limit=3)
        wall = time.perf_counter() - start
        if status is None:
            status = "ok" if self.workload.check(op, output) else "wrong: output differs from reference"
        record = {"op": op.label, "d": op.d, "wall_s": wall, "status": status}
        if self.tracer is not None:
            record["covered_s"] = self.tracer.op_covered_s
            record["self_s"] = {k: self.tracer.op_self_s[k] for k in D_EXPONENT_LAYERS}
        self.records.append(record)
        return wall

    @property
    def ok(self) -> int:
        return sum(r["status"] == "ok" for r in self.records)

    @property
    def wrong(self) -> int:
        return sum(r["status"].startswith("wrong") for r in self.records)

    def ops_per_s(self) -> float:
        return self.ok / sum(r["wall_s"] for r in self.records)


def setup_probe(args) -> float:
    """Set-up time of a fresh process: interpreter, imports, inputs, warm-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def end_to_end(phase: Phase, workload, setup_samples: list[float]) -> tuple[dict, dict]:
    walls = [r["wall_s"] for r in phase.records]
    t = tail(walls)
    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": phase.ops_per_s(),
        "latency_p50_ms": 1e3 * statistics.median(walls),
        "latency_tail_ms": 1e3 * t["value"],
        "correct_frac": phase.ok / len(walls),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    details = {"setup_samples_s": setup_samples, "tail": {k: v for k, v in t.items() if k != "value"}}
    return metrics, details


def per_layer(untraced: Phase, traced: Phase, probes: Phase, workload, tracer) -> tuple[dict, dict]:
    records = traced.records
    ops = len(records)
    if tracer is not None:
        summary = tracer.summary()
        covered = [r["covered_s"] / r["wall_s"] for r in records]
        imports = [workload.imports]
        work = [r["wall_s"] for r in records]
        pairs = {layer: [(r["d"], r["self_s"][layer]) for r in records] for layer in D_EXPONENT_LAYERS}
    else:
        children = workload.children
        summary = {key: {} for key in ("self_s", "total_s", "counts")}
        for child in children:
            for key, values in summary.items():
                for name, value in child[key].items():
                    values[name] = values.get(name, 0) + value
        covered = [c["covered_s"] / r["wall_s"] for c, r in zip(children, records)]
        imports = children
        work = [c["work_s"] for c in children]
        pairs = {layer: [] for layer in D_EXPONENT_LAYERS}
    metrics = {f"{layer}.self_s": summary["self_s"].get(layer, 0.0) / ops for layer in SELF_LAYERS}
    metrics.update({name: summary["counts"].get(name, 0) / ops for name in COUNTS})
    metrics["quadrature.abs_jacobi.tol_fail"] = sum(
        r["status"].startswith("failed: ToleranceError") for r in probes.records)
    metrics.update({f"verify.{group}_s": summary["total_s"].get(f"verify.{group}", 0.0) / ops
                    for group in VERIFY_GROUPS})
    metrics["cli.import_s"] = statistics.median(i["import_s"] for i in imports)
    metrics["cli.import_scipy_s"] = statistics.median(i["import_scipy_s"] for i in imports)
    metrics["cli.work_s"] = statistics.median(work)
    metrics.update({f"{layer}.d_exponent": slope(pairs[layer]) for layer in D_EXPONENT_LAYERS})
    metrics["trace.overhead"] = traced.ops_per_s() / untraced.ops_per_s()
    metrics["trace.coverage"] = statistics.median(covered)
    details = {
        "untraced_ops_per_s": untraced.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
        "coverage_min_max": [min(covered), max(covered)],
        "self_s": summary["self_s"],
        "total_s": summary["total_s"],
        "counts": summary["counts"],
    }
    return metrics, details


def run_one(args) -> int:
    if not (ROOT / "src" / "projconst" / "__init__.py").is_file():
        print(f"error: no projconst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from gate import Gate
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed, Gate())
    workload.setup()
    setup_samples = [time.perf_counter() - _T_START]
    if args.setup_probe:
        print(setup_samples[0])
        return 0
    if args.trace == 0:
        setup_samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-s{args.seed}-trace{args.trace}"

    if args.trace == 0:
        measured = Phase(workload)
        measured.run(args.seconds)
        metrics, details = end_to_end(measured, workload, setup_samples)
        phases = [measured]
    else:
        import spans

        untraced = Phase(workload)
        batches = untraced.run(args.seconds / 2)
        probes = Phase(workload)  # not workload operations: they count only as tol_fail
        for op in workload.probes():
            probes.run_op(op)
        if workload.in_process:
            tracer = spans.Tracer()
            spans.install(tracer)
        else:  # each child traces itself (cli_child.py)
            tracer = None
            workload.trace_dir = Path(str(stem) + "-children")
            workload.trace_dir.mkdir(exist_ok=True)
        traced = Phase(workload, tracer)
        traced.run(batches=batches)  # the same batches again, so the ops compare one to one
        metrics, details = per_layer(untraced, traced, probes, workload, tracer)
        details["probes"] = probes.records
        phases = [untraced, traced]
        if tracer is not None:
            tracer.dump(Path(str(stem) + "-spans.json.gz"))

    records = [r for p in phases for r in p.records]
    attempted = len(records)
    wrong = sum(p.wrong for p in phases) + (probes.wrong if args.trace else 0)
    failed = attempted - sum(p.ok for p in phases)
    info = machine_info(args)
    units = END_TO_END if args.trace == 0 else per_layer_units()
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    failures = sorted({r["status"] for r in records if r["status"] != "ok"})
    details.update(attempted=attempted, failed=failed, wrong=wrong, failure_kinds=failures[:20])
    stem.with_suffix(".json").write_text(json.dumps(
        {"machine": info, "result": result, "details": details, "ops": records}, indent=1))
    print("# machine " + json.dumps(info))
    print("# details " + json.dumps({k: v for k, v in details.items() if k not in ("self_s", "total_s", "counts", "probes")}))
    for name, unit in units.items():
        print(f"# {name:34s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced; one table of every metric."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
            status |= 0 if result["correct"] else 1
    return status


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
