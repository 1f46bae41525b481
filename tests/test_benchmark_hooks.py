"""The benchmark's traced run wraps package functions by name; every name
it lists must resolve, or each traced run fails."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, _ in module.SPANS + module.COUNTS]


@pytest.mark.parametrize("module, attr", _hooks())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[method])
    else:
        assert callable(getattr(owner, attr))
