"""In-memory spans around the program's layer entry points.

Only the traced run installs a :class:`Tracer`.  It replaces each entry
point named in :data:`cflbench.spec.LAYER_ENTRY_POINTS` with a wrapper
that opens a span (name, start, end, parent, operation) around the call,
and each one in :data:`cflbench.spec.AGGREGATE_ENTRY_POINTS` with a
wrapper that sums the time spent inside the call — for a generator,
inside each ``__next__`` — into one record per operation, layer and
parent, since those run once per partial match.  Spans stay in memory
until :meth:`Tracer.records` is read at the end of the run.

Wrappers record only in the process that installed them: a pool worker
forked afterwards inherits the patched functions but runs them through.
A wrapper's own cost lands in the self time of the span around it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import SpanRecord
from .spec import AGGREGATE_ENTRY_POINTS, LAYER_ENTRY_POINTS

_now = time.perf_counter


class Tracer:
    """Span recorder with a stack of open spans.

    ``op`` is the operation id new spans are charged to (``-1`` during
    set-up).  ``stage_layers`` maps ``id(SearchStats)`` of the current
    operation's per-stage stats objects to ``enum.core`` / ``enum.forest``:
    the kernel builds one backtracker per stage, each writing to its
    stage's stats object, which is how an ``extend`` call is told apart.
    """

    def __init__(self) -> None:
        #: cleared in forked children (see :meth:`install`)
        self.active = True
        self.op = -1
        self.stage_layers: Dict[int, str] = {}
        self._spans: List[List[Any]] = []
        # (op, name, parent) -> index into _spans of the aggregate record
        self._aggregates: Dict[Tuple[int, str, Optional[int]], int] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self._spans)
        self._spans.append([name, _now(), 0.0, parent, self.op, 1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self._spans[index]
        span[2] = _now() - span[1]
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def span(self, name: str) -> "_SpanContext":
        """Context manager for a benchmark-side span."""
        return _SpanContext(self, name)

    def _aggregate(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        key = (self.op, name, parent)
        index = self._aggregates.get(key)
        if index is None:
            index = len(self._spans)
            self._spans.append([name, _now(), 0.0, parent, self.op, 0])
            self._aggregates[key] = index
        return index

    def records(self) -> List[SpanRecord]:
        return [
            SpanRecord(i, name, start, duration, parent, op, calls)
            for i, (name, start, duration, parent, op, calls)
            in enumerate(self._spans)
        ]

    # -- installation --------------------------------------------------
    def install(self) -> None:
        os.register_at_fork(after_in_child=self._deactivate)
        for layer, points in LAYER_ENTRY_POINTS.items():
            for module, attr in points:
                self._patch(module, attr, self._span_wrapper(layer))
        for layer, points in AGGREGATE_ENTRY_POINTS.items():
            for module, attr in points:
                self._patch(module, attr, self._aggregate_wrapper(layer))

    def _deactivate(self) -> None:
        self.active = False

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(
        self, module: str, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        owner: Any = importlib.import_module(module)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    def _span_wrapper(self, layer: str) -> Callable[[Callable], Callable]:
        tracer = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active:
                    return fn(*args, **kwargs)
                index = tracer.open(layer)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.close(index)

            return traced

        return make

    def _aggregate_wrapper(self, layer: str) -> Callable[[Callable], Callable]:
        tracer = self

        def make(fn: Callable) -> Callable:
            if inspect.isgeneratorfunction(fn):
                @functools.wraps(fn)
                def traced_gen(*args: Any, **kwargs: Any) -> Any:
                    if not tracer.active:
                        return fn(*args, **kwargs)
                    name = layer
                    if layer == "enum.stage":
                        # args[0] is the KernelBacktracker
                        name = tracer.stage_layers.get(id(args[0].stats), "enum.core")
                    return _TracedIterator(tracer, tracer._aggregate(name), fn(*args, **kwargs))

                return traced_gen

            spans, stack = tracer._spans, tracer._stack

            @functools.wraps(fn)
            def traced_call(*args: Any, **kwargs: Any) -> Any:
                if not tracer.active:
                    return fn(*args, **kwargs)
                index = tracer._aggregate(layer)
                stack.append(index)
                started = _now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span = spans[index]
                    span[2] += _now() - started
                    span[5] += 1
                    stack.pop()

            return traced_call

        return make


class _SpanContext:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_SpanContext":
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc: Any) -> None:
        self.tracer.close(self.index)


class _TracedIterator:
    """Generator proxy charging the time inside each ``__next__`` to the
    aggregate record resolved when the generator was created (the
    operation and the enclosing span do not change while it runs)."""

    __slots__ = ("stack", "span", "index", "inner")

    def __init__(self, tracer: Tracer, index: int, inner: Any) -> None:
        self.stack = tracer._stack
        self.span = tracer._spans[index]
        self.index = index
        self.inner = inner

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self) -> Any:
        stack, span = self.stack, self.span
        stack.append(self.index)
        started = _now()
        try:
            return next(self.inner)
        finally:
            span[2] += _now() - started
            span[5] += 1
            stack.pop()

    def close(self) -> None:
        self.inner.close()
