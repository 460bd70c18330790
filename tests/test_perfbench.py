"""The names the traced benchmark reaches into ``uhlenbeck`` by.

``perfbench/spans.py`` wraps functions and methods looked up by name, and
``perfbench/run.py`` reads ``ncalgebra._reduce_cache``; a rename breaks the
traced run only.  These tests read the lists in place, without importing the
benchmark's runner, so a rename fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_in_its_module():
    for mod, name, _ in _spans().FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"uhlenbeck.{mod}"), name, None)), f"{mod}.{name}"


def test_every_traced_method_is_in_its_class_dict():
    # spans.py wraps cls.__dict__[name], so an inherited method does not count
    for mod, cls, name, _ in _spans().METHODS:
        assert name in vars(getattr(importlib.import_module(f"uhlenbeck.{mod}"), cls)), f"{mod}.{cls}.{name}"


def test_reduce_cache_is_there_for_the_runner():
    assert isinstance(importlib.import_module("uhlenbeck.ncalgebra")._reduce_cache, dict)
