"""semialg's names: its public API, and every name the benchmark tracer patches, with the sizes it records.

The package exports what the commands read and nothing else. bench/tracing.py
resolves each (owner, attribute) of its TRACED list by getattr, so deleting or
renaming one breaks `bench/run.py --trace 1`. Its size functions read
attributes of the arguments and results (a table's bound and generators, a
polynomial's terms, a product's coefficients), so dropping one of those breaks
the traced run too. The list is read from that file as it stands.
"""

import importlib.util
import subprocess
import sys
from functools import reduce
from pathlib import Path
from types import ModuleType

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


LIVE_API = {
    "GeneratorSet", "NotNumericalSemigroupError", "SemigroupTable", "build_table", "conductor_bound",
    "validate_generators", "BivariatePolynomial", "DivisionResult", "divide", "in_kernel", "parse_bivariate",
    "hilbert_series", "k_polynomial", "pair_checks", "rank_nullity_failure",
}


def test_public_api_is_the_live_names():
    public = {name for name, value in vars(semialg).items()
              if not isinstance(value, ModuleType) and (not name.startswith("_") or name == "__version__")}
    assert public == LIVE_API | {"__version__"}


# bench/run.py imports semialg and semialg.cli and nothing else before Tracer(semialg).install()
TRACER_GUARD = """\
import importlib.util, sys
sys.path.insert(0, sys.argv[1])
import semialg
import semialg.cli
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[2])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = [m for m in tracing.MODULES if not hasattr(semialg, m)]
assert not missing, missing
tracer = tracing.Tracer(semialg)
tracer.install()
tracer.uninstall()
"""


def test_tracer_installs_on_a_fresh_import():
    # in this process the test modules have imported every module of semialg themselves
    src = str(Path(semialg.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-c", TRACER_GUARD, src, str(TRACING)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


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
