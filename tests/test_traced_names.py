"""The benchmark's tracer wraps loopspace functions by module-level name.

perfbench/tracer.py replaces each name in TRACED wherever a loopspace
module binds it, so callers must reach those functions through module
names at call time.  A renamed or removed function would silently drop
its spans from a traced benchmark run; this test catches that instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, name) for mod, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("mod, name", traced_names())
def test_traced_name_resolves(mod, name):
    obj = importlib.import_module("loopspace." + mod)
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
