"""Every (module, name) the benchmark tracer wraps must exist in pbcones.

A traced benchmark run reports a renamed or deleted name only as
``trace: missing``; this test reports it in the suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.is_file(), reason="perfbench/ is absent")
def test_tracer_layer_names_resolve(monkeypatch):
    # Load the tracer as a file, writing no bytecode next to it; its
    # dataclasses need the module registered while it runs.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    wrapped = [(module, name) for module, names in tracer.LAYERS.values() for name in names]
    assert wrapped
    missing = [(module, name) for module, name in wrapped
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
