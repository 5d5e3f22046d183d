"""The library names the benchmark reaches stay in place.

``bench/tracer.py`` wraps each of its ``TARGETS`` where the library looks it
up, through ``owner.__dict__[attr]``, and ``bench/workloads.py`` imports its
generators and drivers by name.  A deleted or moved name would otherwise
surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_workloads_import_every_name_they_use():
    # the import itself fails on a missing name
    load("workloads")


@pytest.mark.parametrize("owner, attr", [
    (owner, attr) for owner, attr, _ in load("tracer").TARGETS
], ids=lambda value: getattr(value, "__name__", value))
def test_tracer_targets_are_looked_up_where_they_are_wrapped(owner, attr):
    assert attr in owner.__dict__
