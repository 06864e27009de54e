"""Spans around autkit's layer boundaries, installed from the benchmark's
own files.

Each public function of a layer module is replaced by a wrapper that
records a span: name, start, end, parent span and op id.  A function that
another module imported by name (``from .perms import schreier_sims``) is
replaced at that import site too, by swapping every module-level
reference to the original.  Calls through default arguments bound at
definition time are not seen.  ``Permutation.__mul__`` is far too hot for
spans; it gets a count-only wrapper that records which span it ran in.

Spans stay in memory until ``dump`` writes them out after the run.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter
from pathlib import Path
from typing import Callable

#: autkit submodules whose public functions get spans
LAYERS = ("cli", "graphs", "search", "perms", "verify")


class Tracer:
    def __init__(self) -> None:
        # one list per span: [name, start_ns, end_ns, parent index, op id]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0
        #: (counted name, name of the innermost open span or None) -> calls
        self.counts: Counter[tuple[str, object]] = Counter()

    def span(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, self.op_id]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name, spans[stack[-1]][0] if stack else None] += 1
            return fn(*args, **kwargs)

        return wrapper

    def aggregate(self) -> tuple[dict[str, list[int]], Counter]:
        """Per span name ``[calls, total_ns, self_ns]``, and calls per
        (name, parent name).  Self time is the span's duration minus that
        of its direct children, which nest inside it one after another."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = {}
        by_parent: Counter[tuple[str, object]] = Counter()
        for (name, start, end, parent, _), inner in zip(self.spans, child_ns):
            agg = totals.setdefault(name, [0, 0, 0])
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - inner
            by_parent[name, self.spans[parent][0] if parent >= 0 else None] += 1
        return totals, by_parent

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated line, parents by index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\top\tname\tstart_ns\tend_ns\tparent\n")
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{idx}\t{op}\t{name}\t{start}\t{end}\t{parent}\n")


def install(tracer: Tracer, package: types.ModuleType) -> Callable[[], None]:
    """Wrap the layers of ``package`` (the imported ``autkit``); returns a
    function that puts every original back."""
    layers = {name: getattr(package, name) for name in LAYERS}
    wrapped: dict[int, tuple[object, Callable]] = {}
    for layer, module in layers.items():
        for attr in getattr(module, "__all__", ["main"]):  # cli exports only main
            fn = getattr(module, attr)
            if isinstance(fn, types.FunctionType):
                wrapped[id(fn)] = (fn, tracer.span(f"{layer}.{attr}", fn))

    undo: list[Callable[[], None]] = []
    for module in [package, *layers.values()]:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                setattr(module, attr, wrapped[id(value)][1])
                undo.append(functools.partial(setattr, module, attr, value))

    perms = layers["perms"]
    for cls, attr, make in (
        (perms.BSGS, "contains", tracer.span),
        (perms.Permutation, "__mul__", tracer.counter),
    ):
        original = cls.__dict__[attr]
        setattr(cls, attr, make(f"perms.{cls.__name__}.{attr.strip('_')}", original))
        undo.append(functools.partial(setattr, cls, attr, original))

    def restore() -> None:
        for step in undo:
            step()

    return restore
