"""Every name the benchmark's traced run wraps still exists, and the
benchmark's own unit tests pass.

``perfbench/tracer.py`` replaces the functions listed in ``WRAP_POINTS`` to
measure each layer; a renamed function would drop its metric with only a
line on standard error.  These tests read perfbench and change nothing.
"""

import importlib
import importlib.util
import subprocess
import sys
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


def test_benchmark_self_tests_pass():
    """``python -m unittest discover -s perfbench``, which no other suite runs."""
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", str(TRACER.parent),
         "-p", "test_*.py"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
