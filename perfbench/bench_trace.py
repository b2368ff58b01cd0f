"""Outside-in span tracer for the traced benchmark run.

The library has no tracing of its own, so spans are recorded from the
outside: for the length of a run, each layer's public function is replaced
by a timing wrapper in the namespace of the module that calls it.  For
example ``fit_mesh`` looks up ``assemble_center_set`` and
``assemble_matrix`` in ``arbfscaffold.rbf``, so those are the names wrapped;
the benchmark's own calls go through the ``arbfscaffold`` package namespace,
so ``sample_field``, ``marching_cubes`` and the others are wrapped there.

Spans (name, start, end, parent, item id) stay in memory and are written
out when the run ends.  Wrapped functions are called from one thread only;
``sample_field``'s worker threads run unwrapped code.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    item: int


class Tracer:
    """Records spans around wrapped functions; undoes the wrapping on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item = -1
        self.missing: list[str] = []  # span names whose function was not found
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str) -> bool:
        """Time every call of ``module.attr`` as a span called ``name``.

        A function that no longer exists (renamed or removed by a refactor)
        is recorded in ``missing`` instead of raising.
        """
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(name)
            return False

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self.item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        setattr(module, attr, traced)
        self._undo.append((module, attr, fn))
        return True

    def unwrap_all(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.unwrap_all()
        return False

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another on the same thread, so their
    intervals do not overlap and the subtraction is exact.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def item_layer_times(spans: list[Span], item: int) -> dict[str, float]:
    """Total self time per span name over the spans of one item."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.item == item:
            totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def item_covered_time(spans: list[Span], item: int) -> float:
    """Seconds of one item covered by its outermost spans."""
    return sum(s.end - s.start for s in spans if s.item == item and s.parent is None)
