"""The traced benchmark wraps library functions by name; a rename must fail here."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS_PATH = ROOT / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("module_name", sorted(spans.TARGETS))
def test_every_target_resolves_to_a_callable(module_name):
    module = importlib.import_module(module_name)
    for name in spans.TARGETS[module_name]:
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_work_counters_read_traced_arguments():
    traced = {name for functions in spans.TARGETS.values() for name in functions}
    assert set(spans._WORK) <= traced
    # the arch counter reads d and kind as the first two positional arguments
    from projconst.quadrature import dirichlet_lebesgue

    params = list(inspect.signature(dirichlet_lebesgue).parameters.values())
    assert [p.name for p in params[:2]] == ["d", "kind"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[:2])


def test_verify_check_groups_are_wrappable():
    from projconst.verify import CHECKS

    assert CHECKS and all(isinstance(group, str) and callable(fn) for group, fn in CHECKS)


# what a traced benchmark process does: import the CLI, install, then call.
# `install` reads each TARGETS module from sys.modules, so `import projconst.cli`
# alone must load all of them and projconst.verify.
_TRACED_PROCESS = f"""
import importlib.util, sys
import projconst.cli
spec = importlib.util.spec_from_file_location("perfbench_spans", {str(SPANS_PATH)!r})
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
sys.modules["projconst.constants"].lambda_harmonic(3, 8)
assert tracer.counts["constants.calls"] == 1, dict(tracer.counts)
# lambda's roots come from the traced root layer, so its time is counted there
assert tracer.counts["orthopoly.jacobi_roots.calls"] == 1, dict(tracer.counts)
"""


def test_install_after_a_fresh_cli_import():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TRACED_PROCESS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
