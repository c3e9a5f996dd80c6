"""Spans around calls into the program's modules, for the traced run.

Each wrapped function is replaced in the module namespace where its callers
look it up. A call records a span (name, parent span, start, end, op) into
flat int64 arrays kept in memory, plus a call count; the arrays are written
out when the run ends. Functions called hundreds of thousands of times per
op (formula evaluation) are counted only, which keeps the trace small and
its overhead low.
"""

from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("q") for c in ("name", "parent", "start", "end", "op")}
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name; nested spans become its children."""
        cols = self.cols
        sid = len(cols["start"])
        cols["name"].append(self._id(name))
        cols["parent"].append(self._stack[-1])
        cols["op"].append(self.op)
        cols["start"].append(0)
        cols["end"].append(0)
        self.counts[name] += 1
        self._stack.append(sid)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            cols["start"][sid] = t0
            cols["end"][sid] = t1

    def wrap(self, module: str, attr: str, name, *, count_only: bool = False,
             on_call=None):
        """Replace module.attr with a traced wrapper.

        name is a metric prefix or a function of the call's arguments that
        returns one; on_call(tracer, args, kwargs) may add counts.
        """
        mod = importlib.import_module(module)
        fn = getattr(mod, attr)
        name_of = name if callable(name) else (lambda args, kwargs: name)
        counts = self.counts

        if count_only:
            def traced(*args, **kwargs):
                counts[name_of(args, kwargs)] += 1
                return fn(*args, **kwargs)
        else:
            def traced(*args, **kwargs):
                if on_call is not None:
                    on_call(self, args, kwargs)
                return self.span(name_of(args, kwargs), fn, *args, **kwargs)

        self._undo.append((mod, attr, fn))
        setattr(mod, attr, traced)

    def unwrap(self) -> None:
        while self._undo:
            mod, attr, fn = self._undo.pop()
            setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {c: np.frombuffer(a, dtype=np.int64) if len(a) else np.zeros(0, np.int64)
                for c, a in self.cols.items()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def summarize(tr: Tracer):
    """Per span: name, op, duration and self time (duration minus children), in ns."""
    a = tr.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    # Spans run on one thread, so siblings never overlap and their durations add up.
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    names = np.array(tr.names, dtype=object)[a["name"]] if len(dur) else np.zeros(0, object)
    return names, a["op"], dur, dur - child
