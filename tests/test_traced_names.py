"""Every name the benchmark tracer patches must still exist in semialg.

bench/tracing.py resolves each (owner, attribute) of its TRACED list by getattr,
so deleting or renaming one breaks `bench/run.py --trace 1`. The list is read
from that file as it stands.
"""

import importlib.util
from functools import reduce
from pathlib import Path

import pytest

import semialg

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(owner, attr) for _, owner, attr, _ in module.TRACED]


@pytest.mark.parametrize("owner, attr", traced_names())
def test_traced_name_resolves(owner, attr):
    holder = reduce(getattr, owner.split("."), semialg)
    assert callable(getattr(holder, attr))
