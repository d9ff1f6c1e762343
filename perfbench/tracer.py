"""In-memory span tracer for the benchmark's traced run.

The tracer wraps, at run time, module and class attributes through which one
qpump layer calls the next.  The program itself is not edited: wrappers are
set on the imported modules and the original attributes are put back when
the traced run ends.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Span:
    """One call across a layer boundary.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``item`` the id of the enclosing item span (-1 outside any item).
    ``size`` is a matrix dimension read from the call's arguments, 0 when the
    boundary has none.
    """

    name: str
    start: float
    end: float
    parent: int
    item: int
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []  # a slot is filled when its call returns
        self.counts: Counter = Counter()
        self.items = 0
        self._stack: list[int] = []
        self._item_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # boundaries the program no longer has

    def wrap(self, fn, name: str, item: bool = False, size=None):
        """Return ``fn`` recording one span per call.

        ``item`` marks the span as one benchmark item (a sample or a curve
        point); ``size(args)`` extracts the span's matrix dimension.
        """
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            if item:
                tracer._item_stack.append(tracer.items)
                tracer.items += 1
            cur_item = tracer._item_stack[-1] if tracer._item_stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserve the slot, so parents precede children
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                if item:
                    tracer._item_stack.pop()
                tracer.spans[index] = Span(name, start, end, parent, cur_item,
                                           size(args) if size else 0)

        return traced

    def _find(self, owner, attr: str, name: str):
        """``owner.attr`` if ``owner`` itself defines it.  Otherwise None:
        the boundary ``name`` is recorded in ``missing``, with a warning on
        stderr, and is not traced.  ``owner`` None stands for a missing class."""
        if owner is None or attr not in vars(owner):
            self.missing.append(name)
            where = getattr(owner, "__name__", "<missing class>")
            print(f"perfbench: layer boundary {name} ({where}.{attr}) not found; "
                  "its metrics read 0", file=sys.stderr)
            return None
        return getattr(owner, attr)

    def _install(self, owner, attr: str, wrapped) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = staticmethod(wrapped)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, raw))

    def patch(self, owner, attr: str, name: str, item: bool = False, size=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        fn = self._find(owner, attr, name)
        if fn is not None:
            self._install(owner, attr, self.wrap(fn, name, item, size))

    def patch_count(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls."""
        fn = self._find(owner, attr, name)
        if fn is None:
            return
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, counted)

    def restore(self) -> None:
        """Put back every patched attribute, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]
