"""The benchmark's tracer wraps library functions by name. Each of its targets
must still exist, so a refactor of the library cannot silently break the
benchmark self-test."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
TARGETS = runpy.run_path(str(TRACER))["TARGETS"]


@pytest.mark.parametrize("module,attr,span", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(module, attr, span):
    target = getattr(importlib.import_module(f"shallowmin.{module}"), attr, None)
    assert callable(target), f"perfbench/tracer.py wraps missing shallowmin.{module}.{attr}"
