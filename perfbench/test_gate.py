"""The correctness gate catches small errors.

    python3 -m pytest perfbench/test_gate.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import Gate  # noqa: E402
from workloads import CliMix, Op, parse_importtime  # noqa: E402

GATE = Gate()
CASES = [("harmonic", 3, 2), ("homogeneous", 20, 1600), ("polyleq", 50, 54), ("harmonic", 50, 274),
         ("homogeneous", 2, 99999), ("polyleq", 2, 1000), ("hilbert-real", 4, None)]


def test_lambda_off_by_1e6_relative_is_flagged():
    for family, n, d in CASES:
        ref = GATE.lam(family, n, d)
        assert GATE.lambda_ok(family, n, d, ref)
        assert not GATE.lambda_ok(family, n, d, ref * (1 + 1e-6))
        assert not GATE.lambda_ok(family, n, d, ref * (1 - 1e-6))


def test_verify_stdout_one_byte_off_is_flagged():
    expected = GATE.verify_stdout(42)
    assert GATE.verify_ok(expected, 42)
    raw = expected.encode()
    for i in range(len(raw)):
        changed = raw[:i] + bytes([raw[i] ^ 1]) + raw[i + 1:]
        assert not GATE.verify_ok(changed.decode("latin-1"), 42)
    assert not GATE.verify_ok(expected + "\n", 42)
    assert not GATE.verify_ok(expected[:-1], 42)
    assert not GATE.verify_ok(expected, 43)


def test_cli_compute_off_by_1e6_relative_is_flagged():
    cli = CliMix(HERE.parent, 0, GATE)
    argv = ("compute", "--family", "polyleq", "--n", "3", "--d", "5", "--format", "json")
    record = {"family": "polyleq", "n": 3, "d": 5, "dim": 36,
              "value": GATE.lam("polyleq", 3, 5), "abs_err": 1e-15, "method": "JacobiQuadrature"}
    assert cli.check(Op("compute", argv), json.dumps(record) + "\n")
    record["value"] *= 1 + 1e-6
    assert not cli.check(Op("compute", argv), json.dumps(record) + "\n")


def test_importtime_split():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       400 |        450 |     scipy",
        "import time:       500 |        950 |   scipy.linalg",
        "import time:        10 |       1260 | projconst",
    ])
    split = parse_importtime(stderr)
    assert abs(split["import_s"] - 1260e-6) < 1e-12
    assert abs(split["import_scipy_s"] - 950e-6) < 1e-12
