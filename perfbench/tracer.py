"""In-memory span tracer that times conspar's layers from outside.

``install`` wraps functions where their callers look them up: the module
globals of ``conspar.cli``, ``conspar.degenerate``, ``conspar.conservative``
and ``conspar.fields``, plus the per-point methods
``CoefficientField.__call__`` and ``Expression.__call__``. The program is
not changed; ``uninstall`` puts every original back.

Each wrapped function opens a span (name, start, end, parent). Span names
are ``<module>.<function>``. A span's self time is its duration minus the
time its child spans cover. The per-point methods are too hot for a span
per call: they add a count, the number of points and their own time to
counters on the span that encloses them. Their time stays inside that
span's self time, so the self times of all spans add up to the root's
duration.
"""

from __future__ import annotations

import inspect
import time
import types
from contextlib import contextmanager

# cli's output formatting and writing, private helpers among them.
CLI_WRITERS = ("write_outputs", "_csv", "_density_files", "_plot_files")


class _Frame:
    __slots__ = ("name", "start", "span_child", "hot_child", "owner", "attrs",
                 "counters", "id", "parent")

    def __init__(self, name, owner):
        self.name = name
        self.start = 0.0
        self.span_child = 0.0  # time covered by spans below this frame
        self.hot_child = 0.0  # time covered by hot calls directly below it
        self.owner = owner  # nearest enclosing span frame; None for a span


class Tracer:
    """Spans and hot-call counters, kept in memory in ``records``."""

    def __init__(self):
        self.records = []  # closed spans, as dicts
        self._stack = []
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------

    def _open(self, name):
        frame = _Frame(name, None)
        frame.attrs = {}
        frame.counters = {}
        frame.id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame.parent = None if parent is None else (parent.owner or parent).id
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - frame.start
        self.records.append({
            "id": frame.id,
            "parent": frame.parent,
            "name": frame.name,
            "start": frame.start,
            "end": end,
            "self": duration - frame.span_child,
            "attrs": frame.attrs,
            "counters": frame.counters,
        })
        if self._stack:
            self._stack[-1].span_child += duration

    @contextmanager
    def span(self, name):
        """A span opened by the harness itself; yields its attributes."""
        frame = self._open(name)
        try:
            yield frame.attrs
        finally:
            self._close(frame)

    def wrap_span(self, fn, name, before=None, after=None):
        """``fn`` under a span; ``before(bound_args)`` returns attributes,
        ``after(attrs, result)`` may record more and replace the result."""
        signature = inspect.signature(fn) if before else None

        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                if before:
                    frame.attrs.update(before(signature.bind(*args, **kwargs).arguments))
                result = fn(*args, **kwargs)
            except BaseException as exc:
                frame.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(frame)
            return after(frame.attrs, result) if after else result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hot calls -----------------------------------------------------

    def wrap_hot(self, fn, name, points=None):
        """``fn`` counted on the enclosing span; ``points(args)`` sizes a call."""
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            owner = parent.owner or parent
            frame = _Frame(name, owner)
            stack.append(frame)
            frame.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                parent.span_child += frame.span_child
                parent.hot_child += duration - frame.span_child
                c = owner.counters.get(name)
                if c is None:
                    c = owner.counters[name] = [0, 0, 0.0, 0, 0]
                n = points(args) if points else 1
                c[0] += 1
                c[1] += n
                c[2] += duration - frame.span_child - frame.hot_child
                if parent is owner:  # made directly under the span
                    c[3] += 1
                    c[4] += n

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, attribute, replacement):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self, hooks):
        """Wrap conspar's public functions and per-point methods.

        ``hooks`` maps a span name to ``(before, after)`` callbacks.
        """
        import numpy as np

        from conspar import cli, conservative, degenerate, fields
        from conspar.expressions import Expression
        from conspar.fields import CoefficientField

        wrappers = {}  # one wrapper per function, shared by every module
        for module in (cli, degenerate, conservative, fields):
            for attribute, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if not obj.__module__.startswith("conspar."):
                    continue
                if attribute.startswith("_") and not (module is cli and attribute in CLI_WRITERS):
                    continue
                if id(obj) not in wrappers:
                    name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
                    wrappers[id(obj)] = self.wrap_span(obj, name, *hooks.get(name, (None, None)))
                self._patch(module, attribute, wrappers[id(obj)])

        def size(args):
            return int(np.size(args[1]))

        self._patch(CoefficientField, "__call__",
                    self.wrap_hot(CoefficientField.__call__, "fields.call", size))
        self._patch(Expression, "__call__",
                    self.wrap_hot(Expression.__call__, "expressions.eval", size))

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def self_time_by_layer(records) -> dict:
    """Sum of span self times per layer (the span name's first part)."""
    out = {}
    for r in records:
        layer = r["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + r["self"]
    return out


def hot_totals(records, name, under=None) -> list:
    """[count, points, self seconds, direct count, direct points] summed
    over every span, or only over spans named ``under`` when given."""
    total = [0, 0, 0.0, 0, 0]
    for r in records:
        if under is not None and r["name"] != under:
            continue
        c = r["counters"].get(name)
        if c:
            total = [a + b for a, b in zip(total, c)]
    return total
