"""Span tracer that wraps ottr's layer entry points from outside the package.

Each traced name is looked up in the live ``ottr`` modules and replaced, in
every ``ottr`` module namespace that holds it (and on the owning class for
methods), by a wrapper that records a span ``(name, start, end, parent)``.
Spans stay in memory until ``reset``; ``Tracer.metrics`` turns them into
per-layer seconds, self seconds and call counts, next to the deterministic
counters the wrappers add up.  A name the program no longer has is reported
as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _len(x) -> int:
    terms = getattr(x, "terms", None)
    return 1 if terms is None else len(terms)


def _count_pairs(args, _result) -> dict[str, int]:
    # Upper bound on coefficient products: |a| * |b| (a scalar counts as 1).
    return {"bigphase.BigSeries.mul.pairs": _len(args[0]) * _len(args[1])}


def _count_solve_open(_args, result) -> dict[str, int]:
    return {"genus0.solve_open.terms": len(result.series.terms),
            "genus0.solve_open.free": len(result.free)}


def _count_emit(_args, result) -> dict[str, int]:
    return {"serialize.bytes": len(result)}


def _count_parse(args, _result) -> dict[str, int]:
    return {"serialize.bytes": len(args[0])}


@dataclass(frozen=True)
class Layer:
    """One traced entry point, ``module.attr`` or ``module.attr.method``.

    ``report`` lists the span statistics published for it: ``s`` (seconds
    inside its outermost calls), ``self_s`` (seconds not covered by a traced
    child) and ``calls``.  ``counters`` names what ``count`` adds up.
    """

    metric: str
    module: str
    attr: str
    method: str | None = None
    report: tuple[str, ...] = ("s",)
    count: Callable | None = None
    counters: tuple[str, ...] = ()


LAYERS = (
    Layer("cli.main", "ottr.cli", "main", report=("self_s",)),
    Layer("genus0.solve_closed", "ottr.genus0", "solve_closed_order_by_order"),
    Layer("genus0.solve_open", "ottr.genus0", "solve_open_order_by_order",
          count=_count_solve_open,
          counters=("genus0.solve_open.terms", "genus0.solve_open.free")),
    Layer("genus0.validate_closed", "ottr.genus0", "validate_closed_genus0"),
    Layer("genus0.validate_open", "ottr.genus0", "validate_open_genus0"),
    Layer("genus1.solve_f1o", "ottr.genus1", "solve_f1o"),
    Layer("genus1.f1o_closed_form", "ottr.genus1", "f1o_closed_form"),
    Layer("genus1.validate_open", "ottr.genus1", "validate_open_genus1"),
    Layer("genus1.validate_closed", "ottr.genus1", "validate_closed_genus1"),
    Layer("laxpde.linear_evolution_residual", "ottr.laxpde",
          "linear_evolution_residual"),
    Layer("laxpde.pst_generate", "ottr.laxpde", "pst_generate"),
    Layer("laxpde.first_order_rhs", "ottr.laxpde", "first_order_rhs",
          report=("s", "calls")),
    Layer("laxpde.PseudoDiffOp.compose", "ottr.laxpde", "PseudoDiffOp", "compose",
          report=("s", "calls")),
    Layer("bigphase.BigSeries.mul", "ottr.bigphase", "BigSeries", "__mul__",
          report=("s", "calls"), count=_count_pairs,
          counters=("bigphase.BigSeries.mul.pairs",)),
    Layer("bigphase.partial", "ottr.bigphase", "partial", report=("s", "calls")),
    Layer("bigphase.series_log", "ottr.bigphase", "series_log"),
    Layer("bigphase.eval_jetpoly", "ottr.bigphase", "eval_jetpoly"),
    Layer("algebra.JetPoly.mul", "ottr.algebra", "JetPoly", "__mul__",
          report=("s", "calls")),
    Layer("algebra.dx", "ottr.algebra", "dx", report=("s", "calls")),
    Layer("serialize.parse", "ottr.serialize", "parse", count=_count_parse,
          counters=("serialize.bytes",)),
    Layer("serialize.emit", "ottr.serialize", "emit", count=_count_emit,
          counters=("serialize.bytes",)),
)


def metric_names(layers=LAYERS) -> dict[str, str]:
    """Every per-layer metric the tracer publishes, with its unit."""
    out: dict[str, str] = {}
    for layer in layers:
        for stat in layer.report:
            out[f"{layer.metric}.{stat}"] = "count" if stat == "calls" else "s"
        for counter in layer.counters:
            out[counter] = "bytes" if counter.endswith(".bytes") else "count"
    return out


class Tracer:
    """Installs span wrappers on demand; spans accumulate until ``reset``."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for layer in self.layers:
            module = sys.modules.get(layer.module)
            target = getattr(module, layer.attr, None)
            if target is not None and layer.method is not None:
                owner, target = target, vars(target).get(layer.method)
            if target is None:
                self.absent.append(layer.metric)
                continue
            wrapper = self._wrap(layer, target)
            if layer.method is not None:
                owners = [owner]
            else:
                owners = [m for name, m in list(sys.modules.items())
                          if m is not None and name.split(".")[0] == "ottr"]
            for holder in owners:
                for attr, value in list(vars(holder).items()):
                    if value is target:  # every alias, e.g. __rmul__ = __mul__
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def _wrap(self, layer: Layer, fn):
        name, count = layer.metric, layer.count
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None and result is not NotImplemented:
                for key, value in count(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """(timings, counters) of the spans recorded since the last ``reset``.

        A layer's ``s`` sums only its outermost spans, so re-entrant calls are
        not counted twice; ``self_s`` subtracts the time of direct children.
        Absent layers are left out of both.
        """
        seconds: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                seconds[name] = seconds.get(name, 0.0) + (end - start)
        timings: dict[str, float] = {}
        counters: dict[str, int] = {}
        for layer in self.layers:
            if layer.metric in self.absent:
                continue
            m = layer.metric
            for stat in layer.report:
                if stat == "calls":
                    counters[f"{m}.calls"] = calls.get(m, 0)
                else:
                    table = seconds if stat == "s" else self_s
                    timings[f"{m}.{stat}"] = table.get(m, 0.0)
            for counter in layer.counters:
                counters[counter] = self.counts.get(counter, 0)
        return timings, counters
