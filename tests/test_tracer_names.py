"""The benchmark's tracer wraps growcl functions by name; every name it
lists must still exist, so a rename or deletion fails here rather than in
``bench/run.py --trace 1``.  Some of its span names and counters read an
argument by position; each such argument must stay at its index."""

import importlib
import importlib.util
import inspect
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


# (module, function, index, parameter): the arguments ``bench/tracer.py``
# reads by position.  A shifted one mislabels spans and counters silently:
# ``want_cache`` splits train from eval forward spans, ``mode`` names the
# pipeline span and the per-mode conv counters, ``filters`` feeds the MAC
# counts and ``path`` the container byte counts.
POSITIONAL = [
    ("backbone", "forward_pass", 3, "want_cache"),
    ("driver", "run_pipeline", 1, "mode"),
    ("ops", "conv2d", 1, "filters"),
    ("store", "write_container", 0, "path"),
    ("store", "read_container", 0, "path"),
]


@pytest.mark.parametrize("module,name,index,param", POSITIONAL)
def test_positional_argument_the_tracer_reads_stays_at_its_index(module, name, index, param):
    assert (module, name) in traced_names()
    fn = getattr(importlib.import_module(f"growcl.{module}"), name)
    params = list(inspect.signature(fn).parameters)
    assert params.index(param) == index, params
