"""Spans recorded from outside the library, for the traced run only.

The tracer replaces module attributes through which the layers call each
other with wrappers that record a span (name, start, end, parent span, op
id, op kind, op size, attributes) and return the result unchanged.  Spans
stay in memory; ``dump`` writes them out when the run ends.  The untraced
run never imports this module, so its timings carry no wrapper.
"""

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

from finmeas import cli as fm_cli
from finmeas import kernels as fm_kernels
from finmeas import logic_bisim as fm_logic
from finmeas import metrics as fm_metrics
from finmeas import simplex as fm_simplex
from finmeas import spaces as fm_spaces

NAME, START, END, PARENT, OP, KIND, SIZE, ATTRS = range(8)
_MAXIMIZE = inspect.signature(fm_simplex.maximize)


def _lp_cells(args, kwargs, result):
    """Tableau rows x columns of a maximize call, from its arguments."""
    bound = _MAXIMIZE.bind(*args, **kwargs)
    bound.apply_defaults()
    n = len(bound.arguments["c"])
    rows = len(bound.arguments["a_ub"]) + len(bound.arguments["a_eq"])
    return {"cells": rows * (n + rows + 1)}


def _label_bytes(args, kwargs, result):
    return {"label_bytes": max(len(p.encode()) for p in result.points)}


def _blocks(args, kwargs, result):
    return {"blocks": len(result.blocks)}


def _infeasible(args, kwargs, result):
    return {"infeasible": isinstance(result, fm_logic.Infeasible)}


_ATTRS = {
    "product_space": _label_bytes,
    "logical_equivalence": _blocks,
    "solve_coupling": _infeasible,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.active = False
        self._stack = []
        self._op = (None, None, None)
        self._patches = []

    def begin_op(self, op_id, kind, size):
        self._op = (op_id, kind, size)

    def call(self, name, fn, *args, attrs_of=None, **kwargs):
        """Run fn inside a span when tracing is active."""
        if not self.active:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, *self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
        if attrs_of is not None:
            rec[ATTRS] = attrs_of(args, kwargs, result)
        return result

    def _wrap(self, name, fn, attrs_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, attrs_of=attrs_of, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_attr(self, owner, attr, name=None, attrs_of=None):
        fn = getattr(owner, attr)
        name = name or f"{fn.__module__.split('.')[-1]}.{fn.__name__}"
        self._patch(owner, attr, self._wrap(name, fn, attrs_of or _ATTRS.get(attr)))

    def install(self):
        """Wrap the layer boundaries; uninstall() puts the originals back."""
        for module, caller in ((fm_metrics, "metrics"), (fm_logic, "logic_bisim")):
            self.wrap_attr(module, "maximize", f"simplex.maximize.{caller}", _lp_cells)
        for attr in ("prohorov_distance", "prohorov_feasible", "hutchinson_distance", "check_weak_limit"):
            self.wrap_attr(fm_metrics, attr)
        for attr in (
            "pushforward", "product_space", "logical_equivalence", "quotient_kernel",
            "find_quotient_iso", "mediate", "validity_set", "solve_coupling",
        ):
            self.wrap_attr(fm_logic, attr)
        for attr in ("product_space", "convolve", "path_measure"):
            self.wrap_attr(fm_kernels, attr)
        # the library functions the CLI imports (classes excepted)
        for attr, value in vars(fm_cli).items():
            if (
                inspect.isfunction(value)
                and value.__module__ not in ("finmeas.cli", "finmeas.rational")
                and value.__module__.startswith("finmeas.")
            ):
                self.wrap_attr(fm_cli, attr)
        metric_init = fm_metrics.FiniteMetric.__init__
        self._patch(fm_metrics.FiniteMetric, "__init__", self._wrap("metrics.FiniteMetric", metric_init))
        enumerate_sets = fm_spaces.FiniteMeasurableSpace.measurable_sets
        counters = self.counters

        @functools.wraps(enumerate_sets)
        def measurable_sets(space):
            counters["spaces.measurable_sets_calls"] += 1
            yield from enumerate_sets(space)

        self._patch(fm_spaces.FiniteMeasurableSpace, "measurable_sets", measurable_sets)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op", "kind", "n", "attrs"), rec
                ))) + "\n")

    # ------------------------------------------------------------ summaries

    def self_times(self):
        """Per layer, the span time not covered by child spans, over ops only."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        totals = Counter()
        for k, rec in enumerate(self.spans):
            if rec[OP] == "setup":
                continue
            totals[rec[NAME].split(".")[0]] += rec[END] - rec[START] - child[k]
        return totals
