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


def test_tracer_sees_inherited_slice_methods(monkeypatch):
    """The tracer wraps FreeLoopModel.d_matrix and
    ExtendedQuotientModel.d_matrix with setattr on those classes.  The
    loop model defines the method itself, to hand word length 0 to the
    base model, and the extended complex inherits it from CochainComplex
    through TensorComplex; a wrapper put on either must see every call
    the table builders make, and see it with positional slice arguments,
    as the tracer reads them as (self, n, word_length)."""
    from loopspace import load_corpus_model
    from loopspace.freeloop import FreeLoopModel, hodge_betti_table, loop_betti
    from loopspace.sections import (ExtendedQuotientModel, TheoremReport,
                                    verify_rho_tensor_quasi_iso)

    calls = {}

    def counting(cls):
        fn = cls.d_matrix
        calls[cls.__name__] = []

        def wrapped(*args, **kwargs):
            calls[cls.__name__].append(kwargs)
            return fn(*args, **kwargs)
        monkeypatch.setattr(cls, "d_matrix", wrapped)

    counting(FreeLoopModel)
    counting(ExtendedQuotientModel)
    report = TheoremReport(load_corpus_model("cp2"), 8)
    eqm = report.eqm
    before = {name: len(seen) for name, seen in calls.items()}
    loop_betti(report.flm, 8, hodge=hodge_betti_table(report.flm, 8))
    assert len(calls["FreeLoopModel"]) > before["FreeLoopModel"]
    before = {name: len(seen) for name, seen in calls.items()}
    verify_rho_tensor_quasi_iso(eqm, 8)
    assert all(len(seen) > before[name] for name, seen in calls.items())
    assert not any(kw for seen in calls.values() for kw in seen)
