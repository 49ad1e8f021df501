import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from projconst import verify
from projconst.cli import CSV_HEADER, FAMILIES, SPHERE_FAMILIES, build_parser, main
from projconst.constants import (
    DEFAULT_TOL,
    lambda_complex_homogeneous,
    lambda_harmonic,
    lambda_hilbert,
    lambda_homogeneous,
    lambda_poly_leq,
)
from projconst.errors import ToleranceError


HUGE = str(10**400)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(capsys):
    code, out, _ = run_cli(
        capsys, "compute", "--family", "harmonic", "--n", "3", "--d", "2"
    )
    assert code == 0
    assert "harmonic n=3 d=2 dim=5" in out
    assert f"{10 * math.sqrt(3) / 9:.10g}"[:10] in out


def test_compute_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--family", "polyleq", "--n", "4", "--d", "3", "--format", "json",
    )
    assert code == 0
    record = json.loads(out.strip())
    assert record["family"] == "polyleq"
    assert record["dim"] == 30
    data = json.loads(out)
    assert data["value"] == record["value"]  # exact float round-trip


def test_compute_csv_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--family", "homogeneous", "--n", "3", "--d", "5", "--format", "csv",
    )
    assert code == 0
    family, n, d, dim, value, abs_err, method = out.strip().split(",")
    assert (family, int(n), int(d)) == ("homogeneous", 3, 5)
    fields = (family, int(n), int(d), int(dim), repr(float(value)), repr(float(abs_err)), method)
    assert ",".join(map(str, fields)) == out.strip()


def test_compute_hilbert_families(capsys):
    code, out, _ = run_cli(
        capsys,
        "compute", "--family", "hilbert-real", "--n", "2", "--d", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4 / math.pi, rel=1e-12)


LIBRARY = {
    "harmonic": (lambda n, d: lambda_harmonic(n, d), lambda n, d: math.comb(n + d - 1, d) - math.comb(n + d - 3, d - 2)),
    "homogeneous": (lambda n, d: lambda_homogeneous(n, d), lambda n, d: math.comb(n + d - 1, d)),
    "polyleq": (lambda n, d: lambda_poly_leq(n, d), lambda n, d: math.comb(n + d - 1, d) + math.comb(n + d - 2, d - 1)),
    "complex-homogeneous": (lambda n, d: lambda_complex_homogeneous(n, d), lambda n, d: math.comb(n + d - 1, d)),
    "hilbert-real": (lambda n, d: lambda_hilbert(n, "real"), lambda n, d: n),
    "hilbert-complex": (lambda n, d: lambda_hilbert(n, "complex"), lambda n, d: n),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n,d", [(2, 3), (4, 3), (7, 12)])
def test_compute_json_matches_library(capsys, family, n, d):
    code, out, _ = run_cli(
        capsys, "compute", "--family", family, "--n", str(n), "--d", str(d), "--format", "json",
    )
    assert code == 0
    record = json.loads(out)
    lam, dim = LIBRARY[family]
    expected = lam(n, d)
    assert list(record) == ["family", "n", "d", "dim", "value", "abs_err", "method"]
    assert (record["family"], record["n"], record["d"], record["dim"]) == (family, n, d, dim(n, d))
    assert (record["value"], record["abs_err"], record["method"]) == (
        expected.value, expected.abs_err, expected.method
    )


@pytest.mark.parametrize("family", ["harmonic", "homogeneous", "polyleq"])
def test_compute_dim_beyond_float_range(capsys, family):
    # dim exceeds the float range while lambda does not
    argv = ("compute", "--family", family, "--n", "520", "--d", "560")
    code, out, err = run_cli(capsys, *argv, "--tol", "1e300", "--format", "json")
    assert code == 0, err
    record = json.loads(out)
    assert record["dim"] > 2**1024
    assert math.isfinite(record["value"]) and record["value"] > 1.0
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("tolerance not met")
    assert "Traceback" not in err


def test_complex_homogeneous_overflow_exit_3(capsys):
    argv = ("--family", "complex-homogeneous", "--n", "1500")
    code, out, err = run_cli(capsys, "compute", *argv, "--d", "3000")
    assert code == 3
    assert out == ""
    assert err.startswith("tolerance not met")
    assert "Traceback" not in err
    code, out, _ = run_cli(capsys, "table", *argv, "--d-min", "2999", "--d-max", "3000")
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].endswith("ToleranceFailure")
    assert lines[1].split(",")[:4] == ["complex-homogeneous", "1500", "2999", str(math.comb(4498, 2999))]


def test_polyleq_jacobi_overflow_exit_3(capsys):
    # P_1000^{(749.5,748.5)} overflows in the recurrence, so the arch sum is not finite
    argv = ("--family", "polyleq", "--n", "1500", "--tol", "1e300")
    code, out, err = run_cli(capsys, "compute", *argv, "--d", "1000")
    assert code == 3
    assert out == ""
    assert err == "tolerance not met: lambda overflows double precision at n=1500, d=1000\n"
    code, out, _ = run_cli(capsys, "table", *argv, "--d-min", "1000", "--d-max", "1000")
    assert code == 3
    assert out.strip().splitlines()[1].endswith(",nan,inf,ToleranceFailure")


# from n = 1e17 the eigenvalues round onto each other or onto -1, so the roots
# collapse; summed over anyway, harmonic d = 10 would print 1.4e71 with exit 0
_HUGE_N = [(n, d) for n in (10**17, 10**21) for d in (2, 3, 4, 5, 8, 10, 12)]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second stderr line
@pytest.mark.parametrize("n,d", _HUGE_N)
def test_polyleq_huge_n_exit_3(capsys, n, d):
    code, out, err = run_cli(capsys, "compute", "--family", "polyleq", "--n", str(n), "--d", str(d))
    assert code == 3
    assert out == ""
    assert err == f"tolerance not met: lambda overflows double precision at n={n}, d={d}\n"


# n = 2 polyleq sums over 2d+1 arches ("full"), homogeneous over d+1 ("half");
# past 2**53 arches the arch offsets are no longer exact floats
@pytest.mark.parametrize("family,d", [
    ("polyleq", 2**52), ("polyleq", 10**308), ("homogeneous", 2**53), ("homogeneous", 10**308),
])
def test_n2_beyond_exact_arch_count_exit_2(capsys, family, d):
    code, out, err = run_cli(capsys, "compute", "--family", family, "--n", "2", "--d", str(d))
    assert code == 2
    assert out == ""
    assert err.startswith("error: need at most 2**53 arches") and err.count("\n") == 1


# from n = 3 on the arch sum refuses d past 2**20 before it builds an array;
# at 10**308 numpy used to raise "Maximum allowed dimension exceeded", exit 1
@pytest.mark.parametrize("family", SPHERE_FAMILIES)
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("d", [2**20 + 1, 10**308], ids=["2**20+1", "10**308"])
def test_arch_sum_beyond_degree_ceiling_exit_2(capsys, family, n, d):
    code, out, err = run_cli(capsys, "compute", "--family", family, "--n", str(n), "--d", str(d))
    assert code == 2
    assert out == ""
    assert err == f"error: need d <= 2**20 for n >= 3, got d={d}\n"


# the kernel samples refuse d past the same ceiling; at 10**308 numpy used to
# raise "Maximum allowed dimension exceeded" while building the profile
# coefficients, exit 1
@pytest.mark.parametrize("family", SPHERE_FAMILIES)
@pytest.mark.parametrize("d", [2**20 + 1, 10**308], ids=["2**20+1", "10**308"])
def test_kernel_beyond_degree_ceiling_exit_2(capsys, family, d):
    code, out, err = run_cli(
        capsys, "kernel", "--family", family, "--n", "3", "--d", str(d), "--samples", "3"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: need d <= 2**20 for kernel samples, got d={d}\n"


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second stderr line
@pytest.mark.parametrize("family", ["harmonic", "homogeneous"])
# at (939, 1139) only the arch sum overflows
@pytest.mark.parametrize("n,d", [(1500, 1000), (939, 1139), *_HUGE_N])
def test_symmetric_jacobi_overflow_one_stderr_line(capsys, family, n, d):
    code, out, err = run_cli(
        capsys, "compute", "--family", family, "--n", str(n), "--d", str(d), "--tol", "1e300"
    )
    assert code == 3
    assert out == ""
    assert err == f"tolerance not met: lambda overflows double precision at n={n}, d={d}\n"


# lambda at n = 1e12 takes a Gamma ratio with a half-integer offset, which a
# relative near-integer threshold once read as an integer: harmonic d = 1
# printed 16.33 and complex-homogeneous d = 3 a negative value, both with exit 0
_N_LARGE = 10**12


@pytest.mark.parametrize("family,d,exact_ratio,largest", [
    # harmonic d = 1 is the real Rutovitz constant; c_n's Gamma(n/2) is the
    # largest argument of a log-gamma difference
    ("harmonic", 1,
     lambda n: 2 / mp.sqrt(mp.pi) * mp.gamma((n + 2) / 2) / mp.gamma((n + 1) / 2), _N_LARGE / 2),
    ("complex-homogeneous", 3,
     lambda n: mp.gamma(n + 3) * mp.gamma(mp.mpf(5) / 2) / (mp.gamma(4) * mp.gamma(n + mp.mpf(3) / 2)),
     _N_LARGE + 3.0),
], ids=["harmonic", "complex-homogeneous"])
def test_compute_half_integer_offset_at_large_n(capsys, family, d, exact_ratio, largest):
    code, out, err = run_cli(
        capsys, "compute", "--family", family, "--n", str(_N_LARGE), "--d", str(d), "--format", "json"
    )
    assert code == 0 and err == ""
    value = json.loads(out)["value"]
    with mp.workdps(40):
        exact = exact_ratio(mp.mpf(_N_LARGE))
    # the rounding of one log-gamma difference at the largest argument
    assert abs(value - exact) <= 8 * sys.float_info.epsilon * math.lgamma(largest) * exact


# integrate_abs_kernel's abs_err understates its error at huge n; these reach
# 9.7e-5, 1.2e16 and 2.1e11 in tol's units, so the default tol must refuse them
# loudly until that estimate is fixed, never print them with exit 0
@pytest.mark.parametrize("n,d", [(10**8, 4), (10**10, 8), (10**14, 5)])
def test_huge_n_harmonic_misses_default_tol_exit_3(capsys, n, d):
    with pytest.raises(ToleranceError):
        lambda_harmonic(n, d)
    code, out, err = run_cli(capsys, "compute", "--family", "harmonic", "--n", str(n), "--d", str(d))
    assert code == 3
    assert out == ""
    assert err.startswith("tolerance not met: Jacobi-normalized arch sum reached") and err.count("\n") == 1


def test_kernel_overflow_exit_3(capsys):
    # harmonic_dim(520, 560) exceeds the float range
    code, out, err = run_cli(
        capsys, "kernel", "--family", "harmonic", "--n", "520", "--d", "560", "--samples", "3"
    )
    assert code == 3
    assert out == ""
    assert err == "tolerance not met: kernel overflows double precision at n=520, d=560\n"


# tol is validated before anything is printed, for every family and d, and
# also where no route compares an error with it
@pytest.mark.parametrize("argv", [
    ("compute", "--family", "polyleq", "--n", "2", "--d", "5"),
    ("compute", "--family", "polyleq", "--n", "3", "--d", "5"),
    ("compute", "--family", "harmonic", "--n", "3", "--d", "0"),
    ("compute", "--family", "complex-homogeneous", "--n", "3", "--d", "5"),
    ("compute", "--family", "hilbert-real", "--n", "3", "--d", "5"),
    ("compute", "--family", "hilbert-complex", "--n", "3", "--d", "5"),
    ("table", "--family", "harmonic", "--n", "3", "--d-max", "4"),
    ("converge", "--family", "harmonic", "--n", "3", "--d-values", "8,16"),
], ids=["2", "3", "harmonic-d0", "complex-homogeneous", "hilbert-real", "hilbert-complex",
        "table", "converge"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_compute_nonpositive_tol_exit_2(capsys, argv, tol):
    code, out, err = run_cli(capsys, *argv, "--tol", tol)
    assert code == 2
    assert out == ""
    assert err.startswith("error: tol must be positive") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (("compute", "--family", "harmonic", "--n", "1", "--d", "2"), "need n >= 2, got 1"),
    (("compute", "--family", "hilbert-real", "--n", "3", "--d", "-5"), "need d >= 0, got -5"),
    (("compute", "--family", "hilbert-complex", "--n", "3", "--d", "-5"), "need d >= 0, got -5"),
    (("table", "--family", "hilbert-real", "--n", "3", "--d-min", "-5", "--d-max", "2"),
     "need d >= 0, got -5"),
    (("table", "--family", "hilbert-complex", "--n", "3", "--d-min", "-5", "--d-max", "2"),
     "need d >= 0, got -5"),
    # n is checked by the first row's computation, before the CSV header is printed
    (("table", "--family", "harmonic", "--n", "1", "--d-max", "3"), "need n >= 2, got 1"),
    (("table", "--family", "complex-homogeneous", "--n", "0", "--d-max", "3"),
     "need n >= 1, got 0"),
    (("table", "--family", "hilbert-real", "--n", "0", "--d-max", "3"), "need n >= 1, got 0"),
    # an n or d beyond the float range, which every float formula would overflow on
    *(((*argv, "--n", HUGE, *rest), "need n <= 1.798e+308, the largest float") for argv, rest in [
        (("limits", "--family", "harmonic"), ()),
        (("compute", "--family", "harmonic"), ("--d", "1")),
        (("converge", "--family", "harmonic"), ("--d-values", "2,4")),
        (("table", "--family", "harmonic"), ("--d-max", "3")),
        (("compute", "--family", "hilbert-real"), ("--d", "1")),
        (("compute", "--family", "hilbert-complex"), ("--d", "1")),
        (("compute", "--family", "complex-homogeneous"), ("--d", "1")),
        (("kernel", "--family", "harmonic"), ("--d", "1", "--samples", "3")),
    ]),
    (("compute", "--family", "polyleq", "--n", "3", "--d", HUGE), "need d <= 1.798e+308, the largest float"),
], ids=["harmonic-n1", "hilbert-real", "hilbert-complex", "table-hilbert-real",
        "table-hilbert-complex", "table-harmonic-n1", "table-complex-homogeneous-n0",
        "table-hilbert-real-n0", "limits-huge-n", "compute-huge-n", "converge-huge-n",
        "table-huge-n", "hilbert-real-huge-n", "hilbert-complex-huge-n",
        "complex-homogeneous-huge-n", "kernel-huge-n", "polyleq-huge-d"])
def test_compute_usage_error_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_compute_unknown_family_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--family", "bogus", "--n", "3", "--d", "2"])
    assert exc.value.code == 2
    # verify has no hidden fault switch
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--inject-fault"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


def test_no_hidden_options():
    """Every option of every subcommand shows in --help."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in (parser, *sub.choices.values()):
        for action in p._actions:
            assert action.help != argparse.SUPPRESS, (p.prog, action.option_strings)


def test_compute_tolerance_exit_3(capsys):
    code, _, err = run_cli(
        capsys,
        "compute", "--family", "harmonic", "--n", "3", "--d", "40", "--tol", "1e-18",
    )
    assert code == 3
    assert "tolerance" in err


def test_env_tolerance_override(capsys, monkeypatch):
    monkeypatch.setenv("PROJCONST_TOL", "1e-18")
    code, _, _ = run_cli(
        capsys, "compute", "--family", "harmonic", "--n", "3", "--d", "40"
    )
    assert code == 3
    # explicit --tol wins over the environment
    code, _, _ = run_cli(
        capsys,
        "compute", "--family", "harmonic", "--n", "3", "--d", "40", "--tol", "1e-9",
    )
    assert code == 0


@pytest.mark.parametrize("command", [
    ("compute", "--family", "harmonic", "--n", "3", "--d", "4"),
    ("table", "--family", "harmonic", "--n", "3", "--d-max", "4"),
    ("converge", "--family", "harmonic", "--n", "3", "--d-values", "8,16"),
], ids=lambda argv: argv[0])
def test_env_tolerance_not_a_float_exit_2(capsys, monkeypatch, command):
    monkeypatch.setenv("PROJCONST_TOL", "abc")
    code, out, err = run_cli(capsys, *command)
    assert (code, out, err) == (2, "", "error: PROJCONST_TOL is not a float: 'abc'\n")


def test_table_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "harmonic", "--n", "3", "--d-max", "4", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    records = [line.split(",") for line in lines[1:]]
    assert [int(r[2]) for r in records] == [1, 2, 3, 4]
    assert float(records[1][4]) == pytest.approx(10 * math.sqrt(3) / 9, rel=1e-10)


def test_table_matches_compute(capsys):
    code, table_out, _ = run_cli(
        capsys,
        "table", "--family", "polyleq", "--n", "3",
        "--d-min", "2", "--d-max", "3", "--format", "json",
    )
    assert code == 0
    rows = [json.loads(line) for line in table_out.strip().splitlines()]
    for row in rows:
        code, out, _ = run_cli(
            capsys,
            "compute", "--family", "polyleq", "--n", "3",
            "--d", str(row["d"]), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["value"] == row["value"]


def test_table_tolerance_markers_exit_3(capsys):
    code, out, _ = run_cli(
        capsys,
        "table", "--family", "harmonic", "--n", "3",
        "--d-min", "39", "--d-max", "40", "--tol", "1e-18", "--format", "csv",
    )
    assert code == 3
    assert "ToleranceFailure" in out


def test_limits_defaults(capsys):
    code, out, _ = run_cli(capsys, "limits", "--family", "homogeneous", "--n", "4")
    assert code == 0
    assert "d_power" in out
    value = float(out.strip().rsplit(" ", 1)[-1])
    assert value == pytest.approx(2 / math.pi, rel=1e-13)

    code, out, _ = run_cli(capsys, "limits", "--family", "polyleq", "--n", "2")
    assert code == 0
    assert "log_d" in out

    # the last normal d_power limit still prints; from n = 302 on they are subnormal
    code, out, _ = run_cli(capsys, "limits", "--family", "harmonic", "--n", "301")
    assert (code, out) == (0, "harmonic n=301 normalization=d_power: 3.82465069268396e-307\n")
    for family, n in (("harmonic", "302"), ("polyleq", "1500")):
        code, out, err = run_cli(capsys, "limits", "--family", family, "--n", n)
        assert (code, out) == (3, "")
        assert err == (f"tolerance not met: {family} limit constant underflows double "
                       f"precision at n={n}, normalization=d_power\n")


# math.lgamma overflows here; dim_sqrt's true value is about 0.101, so no
# message may call it an underflow
@pytest.mark.parametrize("family,normalization", [
    ("harmonic", "d_power"), ("homogeneous", "d_power"), ("polyleq", "d_power"),
    ("harmonic", "dim_sqrt"),
])
def test_limits_log_gamma_overflow_exit_3(capsys, family, normalization):
    n = 10**307
    code, out, err = run_cli(
        capsys, "limits", "--family", family, "--n", str(n), "--normalization", normalization
    )
    assert (code, out) == (3, "")
    assert err == (f"tolerance not met: {family} limit constant cannot be evaluated at n={n}, "
                   f"normalization={normalization}: its log-gamma form overflows double precision\n")


def test_limits_invalid_combination_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "limits", "--family", "homogeneous", "--n", "3",
        "--normalization", "dim_sqrt",
    )
    assert code == 2
    assert "error" in err


def test_converge(capsys):
    # harmonic's deviations shrink; homogeneous's at d = 2, 3 do not, which
    # takes the warning branch
    for family, d_values, warning in [
        ("harmonic", "20,80", ""),
        ("homogeneous", "2,3", "warning: |deviation| not monotonically decreasing\n"),
    ]:
        code, out, err = run_cli(
            capsys,
            "converge", "--family", family, "--n", "3", "--d-values", d_values,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,finite_ratio,limit,deviation"
        assert len(lines) == 3
        assert err == warning


@pytest.mark.parametrize("n,d_values", [
    (3, "20,20"),
    (3, "8,abc"),
    (3, "0,4"),  # d^((n-2)/2) is 0 at d = 0
    (2, "0,4"),  # log d is undefined at d = 0 and 0 at d = 1
    (2, "1,4"),
])
def test_converge_bad_d_values_exit_2(capsys, n, d_values):
    family = "polyleq" if n == 2 else "harmonic"
    code, out, err = run_cli(
        capsys,
        "converge", "--family", family, "--n", str(n), "--d-values", d_values,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("extra,reason", [
    (("--n", "50", "--d-values", "100,200"), "Jacobi-normalized arch sum reached"),
    (("--n", "1039", "--d-values", "19,26", "--tol", "inf"), "normalization d_power overflows"),
    (("--n", "2170", "--d-values", "270,273", "--tol", "inf", "--normalization", "dim_sqrt"),
     "normalization dim_sqrt overflows"),
    (("--n", "302", "--d-values", "1,2"), "harmonic limit constant underflows"),
], ids=["lambda", "d_power", "dim_sqrt", "limit"])
def test_converge_tolerance_exit_3(capsys, extra, reason):
    code, out, err = run_cli(capsys, "converge", "--family", "harmonic", *extra)
    assert code == 3
    assert out == ""
    assert err.startswith(f"tolerance not met: {reason}") and err.count("\n") == 1


def test_verify_quick(capsys):
    # draw 94 of seed 924406, x = 63.45810509907083, has x + 1 - x != 1; a
    # log-gamma difference there once failed gamma.recurrence
    for seed in ("42", "924406"):
        code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", seed)
        assert code == 0
        assert f"0 failures (seed={seed})" in out


def test_verify_quick_deterministic(capsys):
    _, out_a, _ = run_cli(capsys, "verify", "--quick", "--seed", "42")
    _, out_b, _ = run_cli(capsys, "verify", "--quick", "--seed", "42")
    assert out_a == out_b


def test_verify_explain_writes_only_stderr(capsys, monkeypatch):
    def no_clock():
        raise AssertionError("verify timed a group without --explain")

    with monkeypatch.context() as patch:
        patch.setattr(verify, "perf_counter", no_clock)
        code, plain, err = run_cli(capsys, "verify", "--quick", "--seed", "3")
    assert code == 0
    assert err == ""
    code, out, err = run_cli(capsys, "verify", "--quick", "--seed", "3", "--explain")
    assert code == 0
    assert out == plain
    records = [json.loads(line) for line in err.splitlines()]
    assert [r["group"] for r in records] == [group for group, _ in verify.CHECKS]
    assert len(records) == 7
    for record in records:
        assert set(record) == {"group", "failures", "wall_s"}
        assert record["failures"] == 0
        assert record["wall_s"] >= 0.0


def test_verify_fault_injection_detected(capsys, monkeypatch):
    # scale every lambda of the n >= 3 route by 1.01: verify must catch it
    def scaled(fn):
        def wrong(n, d, tol=DEFAULT_TOL):
            res = fn(n, d, tol)
            return replace(res, value=1.01 * res.value) if res.method == "ExactArchSum" else res
        return wrong

    for name in ("lambda_harmonic", "lambda_homogeneous", "lambda_poly_leq"):
        monkeypatch.setattr(verify, name, scaled(getattr(verify, name)))
    code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "42")
    assert code == 1
    lines = out.strip().splitlines()
    failures = [json.loads(line) for line in lines[:-1]]
    assert failures, "injected fault must surface as explicit failures"
    for failure in failures:
        assert {"check", "expected", "got", "tolerance"} <= set(failure)
        assert failure["check"].startswith("constants.")
    assert "0 failures" not in lines[-1]
    # with the patch undone the same run passes
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "42")
    assert code == 0


def test_kernel_csv(capsys):
    argv = ("kernel", "--family", "harmonic", "--n", "3", "--d", "2", "--samples", "5")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,k_sum,k_closed"
    assert len(lines) == 6
    t, k_sum, k_closed = (float(v) for v in lines[-1].split(","))
    assert t == 1.0
    assert k_sum == pytest.approx(5.0, rel=1e-12)
    assert k_closed == pytest.approx(5.0, rel=1e-12)
    # --format json prints the same rows as one record per line
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert [[r["t"], r["k_sum"], r["k_closed"]] for r in records] == rows


def test_kernel_bad_samples_exit_2(capsys):
    code, _, _ = run_cli(
        capsys,
        "kernel", "--family", "harmonic", "--n", "3", "--d", "2", "--samples", "1",
    )
    assert code == 2


def test_no_subcommand_exit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["compute", "table", "converge", "kernel", "limits"]))
    families = FAMILIES if command in ("compute", "table") else SPHERE_FAMILIES
    argv = [command, "--family", draw(st.sampled_from(families)), "--n", str(draw(st.integers(-1, 3000)))]
    degree = st.integers(-1, 400)
    if command in ("compute", "kernel"):
        argv += ["--d", str(draw(degree))]
    if command == "kernel":
        argv += ["--samples", str(draw(st.integers(0, 5)))]
    if command == "table":
        d_min = draw(degree)
        argv += ["--d-min", str(d_min), "--d-max", str(d_min + draw(st.integers(-1, 2)))]
    if command == "converge":
        d_values = draw(st.lists(degree, min_size=1, max_size=3))
        if draw(st.booleans()):
            d_values = sorted(set(d_values))
        argv.append("--d-values=" + ",".join(map(str, d_values)))  # "=": argparse takes "-1,4" for a flag
    if command in ("converge", "limits") and draw(st.booleans()):
        argv += ["--normalization", draw(st.sampled_from(["dim_sqrt", "d_power", "log_d"]))]
    if command in ("compute", "table", "converge") and draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["1e-10", "1e-18", "1e300", "0", "nan", "inf"]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(cli_argv())
def test_cli_exit_code_is_0_2_or_3(argv):
    """Every failure maps to a documented exit code; none escapes as a traceback."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv


# commands whose every eigenproblem has at most 32 rows and whose incomplete
# beta, if any, is at n <= 100, where numpy serves it; scipy must stay
# unloaded while they run
_COLD_ARGVS = [
    ["compute", "--family", "harmonic", "--n", "3", "--d", "64"],
    ["compute", "--family", "homogeneous", "--n", "3", "--d", "7"],
    ["compute", "--family", "polyleq", "--n", "2", "--d", "5"],
    ["compute", "--family", "complex-homogeneous", "--n", "3", "--d", "5"],
    ["compute", "--family", "hilbert-real", "--n", "3", "--d", "1"],
    ["limits", "--family", "harmonic", "--n", "3"],
    ["kernel", "--family", "harmonic", "--n", "3", "--d", "6", "--samples", "101"],
    ["table", "--family", "harmonic", "--n", "3", "--d-max", "20"],
    ["compute", "--family", "polyleq", "--n", "3", "--d", "5"],
    ["compute", "--family", "homogeneous", "--n", "4", "--d", "6"],
    ["table", "--family", "polyleq", "--n", "5", "--d-max", "20"],
    ["converge", "--family", "homogeneous", "--n", "4", "--d-values", "8,16,32,64"],
]

_COLD_PROCESS = """
import contextlib, io, json, sys
import projconst.cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = projconst.cli.main(argv)
    loaded.append([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")])
print(json.dumps(loaded))
"""


def _run_cold(argvs):
    """(exit code, scipy modules loaded so far) after each argv, in one fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _COLD_PROCESS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_small_commands_do_not_import_scipy():
    for argv, (code, scipy_modules) in zip(_COLD_ARGVS, _run_cold(_COLD_ARGVS)):
        assert code == 0, argv
        assert scipy_modules == [], argv


def test_verify_quick_imports_scipy_linalg_only():
    # its eigenproblems above 32 rows need scipy.linalg; its incomplete betas,
    # all at n <= 100, need no scipy.special
    [(code, scipy_modules)] = _run_cold([["verify", "--quick"]])
    assert code == 0
    assert "scipy.linalg" in scipy_modules
    assert "scipy.special" not in scipy_modules
