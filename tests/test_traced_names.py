"""Every name the benchmark tracer patches must still exist in semialg, and every size it records must read.

bench/tracing.py resolves each (owner, attribute) of its TRACED list by getattr,
so deleting or renaming one breaks `bench/run.py --trace 1`. Its size functions
read attributes of the arguments and results (a table's bound and generators, a
polynomial's terms, a product's coefficients), so dropping one of those breaks
the traced run too. The list is read from that file as it stands.
"""

import importlib.util
from functools import reduce
from pathlib import Path

import pytest

import semialg
import semialg.cli  # Tracer.install reads every module of the package, cli among them
from semialg import bivariate_algebra as biv
from semialg import gap_polynomials as gp
from semialg import graded_hilbert as gh
from semialg import semigroup_core as sc

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    return [(owner, attr) for _, owner, attr, _ in load_tracing().TRACED]


def sized_span_names():
    tracing = load_tracing()
    return [name for name, _, _, size in tracing.TRACED if size is not None and size is not tracing.COUNT]


@pytest.mark.parametrize("owner, attr", traced_names())
def test_traced_name_resolves(owner, attr):
    holder = reduce(getattr, owner.split("."), semialg)
    assert callable(getattr(holder, attr))


# one call through each sized span, by module attribute so that the installed wrapper runs, and its size
SIZED_CALLS = {
    # the conductor bound (5 - 1) * 3 of {3, 5}, plus max(A) + 1
    "semigroup_core.build_table": (lambda: sc.build_table(sc.validate_generators([3, 5])), 18),
    "gap_polynomials.IntPolynomial.mul": (lambda: gp.IntPolynomial([1, 1]) * gp.IntPolynomial([1, 2, 3]), 6),
    "graded_hilbert.TruncatedSeries.mul":
        (lambda: gh.TruncatedSeries(2, (1, 1, 1)) * gh.TruncatedSeries(2, (1, 1, 1)), 9),
    "bivariate_algebra.parse_bivariate": (lambda: biv.parse_bivariate("3*x^2*y - 1/2*y^4 + 7 + x - x"), 3),
}


def test_every_sized_span_has_a_call():
    assert sorted(sized_span_names()) == sorted(SIZED_CALLS)


@pytest.mark.parametrize("name", sized_span_names())
def test_traced_size_is_recorded(name):
    call, size = SIZED_CALLS[name]
    tracer = load_tracing().Tracer(semialg)
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    assert [(span[0], span[5], span[6]) for span in tracer.spans] == [(name, size, None)]
