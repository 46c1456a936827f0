"""The names of `dynbroadcast` that the benchmark's per-layer tracer wraps.

`perfbench/tracer.py` patches the package by name at run time, so a rename
or deletion there breaks only traced benchmark runs. These tests load the
tracer from its file, without installing it, and check every name it reads.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from dynbroadcast import solver
from dynbroadcast.graph import make_path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names(tracer):
    return [pair for table in (tracer.COLD, tracer.HOT) for pairs in table.values() for pair in pairs]


def test_every_wrapped_name_resolves(tracer):
    names = wrapped_names(tracer)
    assert names
    for mod_name, attr in names:
        owner = importlib.import_module(f"dynbroadcast.{mod_name}")
        if "." in attr:
            # A class attribute is replaced by a plain function, which binds
            # as a method only if the original was one too.
            cls_name, meth = attr.split(".")
            original = inspect.getattr_static(getattr(owner, cls_name), meth)
            assert inspect.isfunction(original), (mod_name, attr)
        else:
            assert callable(getattr(owner, attr)), (mod_name, attr)


def test_every_policy_module_exists(tracer):
    for mod_name in tracer.POLICY_MODULES:
        importlib.import_module(f"dynbroadcast.{mod_name}")


def test_attractor_hooks_find_what_they_read():
    # The hook binds each call's arguments to read the cache key.
    bound = inspect.signature(solver.compute_attractor).bind(make_path(3), 2)
    bound.apply_defaults()
    assert {"g", "total_agents", "mode"} <= set(bound.arguments)
    assert isinstance(solver._ATTRACTOR_CACHE, dict)
