"""The benchmark's tracer wraps growcl functions by name; every name it
lists must still exist, so a rename or deletion fails here rather than in
``bench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("module,qualname", traced_names())
def test_traced_name_resolves(module, qualname):
    owner = importlib.import_module(f"growcl.{module}")
    *classes, name = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer patches methods through the class's own __dict__
    target = vars(owner)[name] if classes else getattr(owner, name)
    assert callable(target)
