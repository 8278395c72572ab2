"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the package: ``Tracer.patch`` replaces a
function at the name its callers resolve (a module attribute or a class
attribute) with a wrapper that records one span per call.  ``restore``
puts every original back.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records name, start, end, parent span and run id of each wrapped call.

    ``describe(args, kwargs, result)`` optionally attaches attributes (step
    counts, row counts, ...) to a span; it runs after the timed call.  While
    ``active`` is false the wrappers only pass calls through.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.active = False
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, describe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = Span(name, self.run, self._stack[-1] if self._stack else None, 0.0)
            self.spans.append(span)
            self._stack.append(index)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = f"{type(exc).__name__}: {exc}"
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if describe is not None and span.error is None:
                    span.attrs = describe(args, kwargs, result)

        return wrapper

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        """Wrap ``owner.attr`` (module function, plain method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(name, original.__func__, describe))
        else:
            wrapped = self._wrap(name, original, describe)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Calls are single-threaded, so children never overlap and their
        durations add up to the covered interval."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path) -> None:
        """Write the spans as JSON lines (attrs limited to JSON scalars)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                attrs = {k: v for k, v in s.attrs.items() if isinstance(v, (int, float, str, bool))}
                record = {
                    "id": i, "name": s.name, "run": s.run, "parent": s.parent,
                    "start": s.start, "end": s.end, "attrs": attrs, "error": s.error,
                }
                fh.write(json.dumps(record) + "\n")
