"""Spans around semialg's public functions, installed from outside the package.

Tracer.install() replaces each traced function by a wrapper in every module of
the package that binds it, so calls through re-bound names such as
gap_polynomials.build_table are seen too; uninstall() puts the originals back.
Spans (name, start, end, parent, op id, size, error) are kept in memory and
turned into per-operation layer metrics when the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict

# Marks a function that is called tens of thousands of times per operation:
# its calls are counted, not spanned.
COUNT = "count"

# (span name, owner path inside semialg, attribute, size per call, None or COUNT).
# The owner path is "<module>" or "<module>.<class>".
TRACED = (
    ("semigroup_core.build_table", "semigroup_core", "build_table",
     lambda args, table: table.bound + max(table.generators.elements) + 1),
    ("semigroup_core.represent_from_table", "semigroup_core", "represent_from_table", None),
    ("gap_polynomials.gap_polynomial", "gap_polynomials", "gap_polynomial", None),
    ("gap_polynomials.IntPolynomial.mul", "gap_polynomials.IntPolynomial", "__mul__",
     lambda args, product: len(args[0].coefficients) * len(args[1].coefficients)),
    ("gap_polynomials.verify_functional_equation", "gap_polynomials",
     "verify_functional_equation", None),
    ("graded_hilbert.graded_dims", "graded_hilbert", "graded_dims", None),
    ("graded_hilbert.TruncatedSeries.mul", "graded_hilbert.TruncatedSeries", "__mul__",
     lambda args, product: len(args[0].coefficients) * len(args[1].coefficients)),
    ("graded_hilbert.hilbert_series", "graded_hilbert", "hilbert_series", None),
    ("bivariate_algebra.divide", "bivariate_algebra", "divide", None),
    ("bivariate_algebra.parse_bivariate", "bivariate_algebra", "parse_bivariate",
     lambda args, g: len(g.terms)),
    ("bivariate_algebra.phi_evaluate", "bivariate_algebra", "phi_evaluate", None),
    ("bivariate_algebra.in_kernel", "bivariate_algebra", "in_kernel", None),
    ("graded_hilbert.partition_count", "graded_hilbert", "partition_count", COUNT),
)

MODULES = ("semigroup_core", "gap_polynomials", "graded_hilbert", "bivariate_algebra", "cli")

MAIN = "cli.main"

# Per-layer metrics: name -> (span name, field, unit). Fields: ms (inclusive
# time), calls, size (the span's size function), refused (BoundTooLargeError).
LAYER_METRICS = {
    "semigroup_core.build_table.ms": ("semigroup_core.build_table", "ms", "ms/op"),
    "semigroup_core.build_table.cells": ("semigroup_core.build_table", "size", "cells/op"),
    "semigroup_core.build_table.calls": ("semigroup_core.build_table", "calls", "calls/op"),
    "semigroup_core.build_table.refused": ("semigroup_core.build_table", "refused", "calls/op"),
    "semigroup_core.represent_from_table.ms": ("semigroup_core.represent_from_table", "ms", "ms/op"),
    "gap_polynomials.gap_polynomial.ms": ("gap_polynomials.gap_polynomial", "ms", "ms/op"),
    "gap_polynomials.IntPolynomial.mul.calls": ("gap_polynomials.IntPolynomial.mul", "calls", "calls/op"),
    "gap_polynomials.IntPolynomial.mul.ms": ("gap_polynomials.IntPolynomial.mul", "ms", "ms/op"),
    "gap_polynomials.IntPolynomial.mul.coeff_products":
        ("gap_polynomials.IntPolynomial.mul", "size", "products/op"),
    "gap_polynomials.verify_functional_equation.calls":
        ("gap_polynomials.verify_functional_equation", "calls", "calls/op"),
    "graded_hilbert.graded_dims.ms": ("graded_hilbert.graded_dims", "ms", "ms/op"),
    "graded_hilbert.partition_count.calls": ("graded_hilbert.partition_count", "calls", "calls/op"),
    "graded_hilbert.TruncatedSeries.mul.calls": ("graded_hilbert.TruncatedSeries.mul", "calls", "calls/op"),
    "graded_hilbert.TruncatedSeries.mul.ms": ("graded_hilbert.TruncatedSeries.mul", "ms", "ms/op"),
    "graded_hilbert.TruncatedSeries.mul.coeff_products":
        ("graded_hilbert.TruncatedSeries.mul", "size", "products/op"),
    "graded_hilbert.hilbert_series.ms": ("graded_hilbert.hilbert_series", "ms", "ms/op"),
    "bivariate_algebra.divide.calls": ("bivariate_algebra.divide", "calls", "calls/op"),
    "bivariate_algebra.divide.ms": ("bivariate_algebra.divide", "ms", "ms/op"),
    "bivariate_algebra.parse_bivariate.ms": ("bivariate_algebra.parse_bivariate", "ms", "ms/op"),
    "bivariate_algebra.parse_bivariate.terms": ("bivariate_algebra.parse_bivariate", "size", "terms/op"),
    "bivariate_algebra.phi_evaluate.ms": ("bivariate_algebra.phi_evaluate", "ms", "ms/op"),
    "bivariate_algebra.in_kernel.ms": ("bivariate_algebra.in_kernel", "ms", "ms/op"),
    "cli.main.self_ms": (MAIN, "self_ms", "ms/op"),
}


def _resolve(package, path: str):
    owner = package
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, op id, size, error]
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, size=None):
        """fn wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, None]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[6] = type(exc).__name__
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                record[5] = size(args, result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [self.package, *(getattr(self.package, m) for m in MODULES)]
        for name, owner_path, attr, size in TRACED:
            owner = _resolve(self.package, owner_path)
            original = getattr(owner, attr)
            if size is COUNT:
                wrapper = self._counter(name, original)
            else:
                wrapper = self.span(name, original, size)
            # Classes are patched in place; a function wherever a module binds it.
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def totals(self) -> dict[str, dict]:
        """Per span name: inclusive ms, self ms (minus direct children), calls, size, refusals."""
        total = defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0, "size": 0, "refused": 0})
        child_ms = [0.0] * len(self.spans)
        # A child span is always recorded after its parent, so walking backwards
        # sees every child before its parent.
        for index in range(len(self.spans) - 1, -1, -1):
            name, start, end, parent, _, size, error = self.spans[index]
            ms = (end - start) * 1000.0
            if parent >= 0:
                child_ms[parent] += ms
            entry = total[name]
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[index]
            entry["calls"] += 1
            entry["size"] += size
            entry["refused"] += error == "BoundTooLargeError"
        for name, calls in self.counts.items():
            total[name]["calls"] += calls
        return total

    def layer_metrics(self, ops: int, output_bytes: int, overhead_ms: float) -> dict[str, tuple[float, str]]:
        """Per-operation layer metrics over every recorded span."""
        total = self.totals()
        metrics = {
            metric: (total[span][field] / ops, unit)
            for metric, (span, field, unit) in LAYER_METRICS.items()
        }
        metrics["cli.main.output_bytes"] = (output_bytes / ops, "bytes/op")
        metrics["trace.overhead_ms"] = (overhead_ms, "ms/op")
        return metrics
