"""The traced benchmark wraps library functions by name; a rename must fail here."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
