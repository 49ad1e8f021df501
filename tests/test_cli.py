import json
import math

import pytest

from projconst import verify
from projconst.cli import CSV_HEADER, FAMILIES, main
from projconst.constants import (
    lambda_complex_homogeneous,
    lambda_harmonic,
    lambda_hilbert,
    lambda_homogeneous,
    lambda_poly_leq,
)


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
    # P_1000^{(749.5,748.5)} overflows in the recurrence, so no root can be polished
    argv = ("--family", "polyleq", "--n", "1500", "--tol", "1e300")
    code, out, err = run_cli(capsys, "compute", *argv, "--d", "1000")
    assert code == 3
    assert out == ""
    assert err == "tolerance not met: lambda overflows double precision at n=1500, d=1000\n"
    code, out, _ = run_cli(capsys, "table", *argv, "--d-min", "1000", "--d-max", "1000")
    assert code == 3
    assert out.strip().splitlines()[1].endswith(",nan,inf,ToleranceFailure")


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a second stderr line
@pytest.mark.parametrize("family", ["harmonic", "homogeneous"])
def test_symmetric_jacobi_overflow_one_stderr_line(capsys, family):
    code, out, err = run_cli(
        capsys, "compute", "--family", family, "--n", "1500", "--d", "1000", "--tol", "1e300"
    )
    assert code == 3
    assert out == ""
    assert err == "tolerance not met: lambda overflows double precision at n=1500, d=1000\n"


def test_kernel_overflow_exit_3(capsys):
    # harmonic_dim(520, 560) exceeds the float range
    code, out, err = run_cli(
        capsys, "kernel", "--family", "harmonic", "--n", "520", "--d", "560", "--samples", "3"
    )
    assert code == 3
    assert out == ""
    assert err == "tolerance not met: kernel overflows double precision at n=520, d=560\n"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("tol", ["0", "-1"])
def test_compute_nonpositive_tol_exit_2(capsys, n, tol):
    code, out, err = run_cli(
        capsys, "compute", "--family", "polyleq", "--n", str(n), "--d", "5", "--tol", tol
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: tol must be positive")


def test_compute_usage_error_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "compute", "--family", "harmonic", "--n", "1", "--d", "2"
    )
    assert code == 2
    assert "error" in err


def test_compute_unknown_family_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--family", "bogus", "--n", "3", "--d", "2"])
    assert exc.value.code == 2


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


def test_limits_invalid_combination_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "limits", "--family", "homogeneous", "--n", "3",
        "--normalization", "dim_sqrt",
    )
    assert code == 2
    assert "error" in err


def test_converge(capsys):
    code, out, _ = run_cli(
        capsys,
        "converge", "--family", "harmonic", "--n", "3", "--d-values", "20,80",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,finite_ratio,limit,deviation"
    assert len(lines) == 3


def test_converge_bad_d_values_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "converge", "--family", "harmonic", "--n", "3", "--d-values", "20,20",
    )
    assert code == 2


def test_verify_quick(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "42")
    assert code == 0
    assert "0 failures (seed=42)" in out


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


def test_verify_fault_injection_detected(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "42", "--inject-fault")
    assert code == 1
    lines = out.strip().splitlines()
    failures = [json.loads(line) for line in lines[:-1]]
    assert failures, "injected fault must surface as explicit failures"
    for failure in failures:
        assert {"check", "expected", "got", "tolerance"} <= set(failure)
    assert "0 failures" not in lines[-1]
    # the fault is an argument, not state: the next unfaulted run passes
    code, out, _ = run_cli(capsys, "verify", "--quick", "--seed", "42")
    assert code == 0


def test_kernel_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "kernel", "--family", "harmonic", "--n", "3", "--d", "2", "--samples", "5",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,k_sum,k_closed"
    assert len(lines) == 6
    t, k_sum, k_closed = (float(v) for v in lines[-1].split(","))
    assert t == 1.0
    assert k_sum == pytest.approx(5.0, rel=1e-12)
    assert k_closed == pytest.approx(5.0, rel=1e-12)


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
