"""Every name the benchmark's traced run wraps still exists.

``perfbench/tracer.py`` replaces the functions listed in ``WRAP_POINTS`` to
measure each layer; a renamed function would drop its metric with only a
line on standard error.  This test reads the list and changes nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.WRAP_POINTS]


@pytest.mark.parametrize("module, attr", _wrap_points())
def test_wrap_point_resolves(module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
