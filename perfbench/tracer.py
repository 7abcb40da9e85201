"""In-memory call spans around the public functions of the rlexec layers.

The tracer replaces each public function of the given layer modules with a
timing wrapper in every module that binds it (``from .x import f`` makes a
second binding), records one span per call, and puts the originals back on
``restore``. Spans stay in memory until the caller reduces them.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Any, Callable, Iterable


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the span list, None for a root
    run_id: str
    summary: Any = None  # small digest of the call's result, for counts


Summariser = Callable[[tuple, dict, Any], Any]


class Tracer:
    def __init__(self, summarisers: dict[str, Summariser] | None = None) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, Callable]] = []
        self._summarisers = summarisers or {}

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrapper(self, name: str, func: Callable) -> Callable:
        summarise = self._summarisers.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if summarise is not None:
                self.spans[index].summary = summarise(args, kwargs, result)
            return result

        return traced

    def wrap(self, layers: Iterable[ModuleType], bindings: Iterable[ModuleType]) -> list[str]:
        """Wrap every public function defined in `layers` wherever `bindings`
        (which should include the layers themselves) bind it.

        Spans are named ``<layer>.<function>`` after the defining module's last
        dotted component. Returns the span names wrapped.
        """
        if self._patched:
            raise RuntimeError("already wrapped; call restore() first")
        wrappers: dict[int, Callable] = {}
        names: list[str] = []
        for layer in layers:
            short = layer.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(layer).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != layer.__name__:
                    continue
                wrappers[id(obj)] = self._wrapper(f"{short}.{attr}", obj)
                names.append(f"{short}.{attr}")
        for module in bindings:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return names

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of its interval that its child
    spans cover (overlapping children are merged, not double-counted)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: list[float] = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((span.end - span.start) - covered)
    return out
