"""Span tracing around the calls into each ctlenum layer.

The tracer wraps module attributes and methods from the outside; nothing
in the program changes. Each span adds its duration to its layer and to
the child time of the enclosing span, so a layer's self time is its own
time minus the time of traced layers nested inside it. A layer given a
key function also counts calls whose key the run has already seen.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns


class LayerTotals:
    __slots__ = ("calls", "total_ns", "child_ns", "repeats", "seen")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.repeats = 0
        self.seen: set | None = None

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns

    @property
    def repeat_ratio(self) -> float:
        return self.repeats / self.calls if self.calls else 0.0


class Tracer:
    """Collects per-layer call counts, self time and repeated-key counts."""

    def __init__(self):
        self.layers: dict[str, LayerTotals] = {}
        self.active = True
        self._stack: list[int] = []

    def layer(self, name: str) -> LayerTotals:
        return self.layers.setdefault(name, LayerTotals())

    def _enter(self) -> int:
        self._stack.append(0)
        return perf_counter_ns()

    def _exit(self, totals: LayerTotals, start: int) -> None:
        elapsed = perf_counter_ns() - start
        totals.calls += 1
        totals.total_ns += elapsed
        totals.child_ns += self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed

    def wrap(self, name: str, fn, key=None):
        """fn with every active call recorded as a span of layer name."""
        totals = self.layer(name)
        if key is not None:
            totals.seen = set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key is not None:
                k = key(*args, **kwargs)
                if k in totals.seen:
                    totals.repeats += 1
                else:
                    totals.seen.add(k)
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(totals, start)

        return traced

    def iterate(self, name: str, iterable):
        """Yield from iterable, recording each next() as a span of layer name."""
        totals = self.layer(name)
        iterator = iter(iterable)
        while True:
            start = self._enter()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(totals, start)
            yield item

    def patch(self, owner, attr: str, name: str, key=None) -> None:
        """Replace owner.attr by its traced wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), key))


class NullTracer:
    """Stand-in for untraced rounds: no wrapping, no bookkeeping."""

    def wrap(self, name, fn, key=None):
        return fn

    def iterate(self, name, iterable):
        return iterable


def closure_key(compiled, del_worlds, del_edges, connected):
    return id(compiled), del_worlds, del_edges, connected


def label_key(compiled, wmask, emask, phi):
    return id(compiled), wmask, emask, phi


def install(tracer: Tracer) -> None:
    """Wrap the ctlenum entry points the benchmark drives, layer by layer.

    Functions the engine imports by name are wrapped where the engine
    looks them up (enumeration.compile_model, enumeration.label_masks).
    """
    from ctlenum import enumeration, families, kripke, reductions
    from ctlenum import formula as F

    model = kripke.CompiledModel
    tracer.patch(model, "closure", "kripke.closure", key=closure_key)
    tracer.patch(model, "reach", "kripke.reach")
    tracer.patch(model, "successor_masks", "kripke.successor_masks")
    tracer.patch(model, "submodel", "kripke.submodel")
    tracer.patch(kripke, "canonical_serialize", "kripke.serialize")
    tracer.patch(enumeration, "compile_model", "kripke.compile")
    tracer.patch(enumeration, "label_masks", "modelcheck.label", key=label_key)
    tracer.patch(enumeration, "enumerate_submodels", "enumeration")
    tracer.patch(enumeration, "exists_submodel", "enumeration")
    tracer.patch(F, "parse_formula", "formula.parse")
    tracer.patch(F, "classify_fragment", "formula.classify")
    tracer.patch(F, "afag_trim", "formula.classify")
    for attr in ("chain_models", "random_model", "formulas_by_size", "afag_chain_formulas"):
        tracer.patch(families, attr, "families.generate")
    for attr in ("sat_to_ag", "hampath_to_af", "hampath_to_ax", "hampath_to_au", "hampath_to_ar"):
        tracer.patch(reductions, attr, "reductions.generate")
