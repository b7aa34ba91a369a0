"""The hierarchical span tracer: one instrumentation layer for
planning, benchmarking and debugging.

A *trace* is a tree of :class:`Span` records rooted at one planner
entry point (``run_join`` / ``run_topk``).  Code
under an active trace opens child spans with the :func:`span` context
manager, attaches attributes (``span("pool", workers=4)``) and bumps
counters (:func:`add_counter`); the per-stage wall times the cost model
consumes are ordinary spans of ``kind="stage"`` opened by
:func:`stage_timer`, so a report's stage split, the plan's measured
stages and the calibration observation records are all *derived* from
the trace tree (:func:`stage_totals`) — the tree is the only record of
how a run executed.

Pool threads root their own ``"shard"`` traces
(:mod:`repro.parallel.pool`) and the coordinator appends the finished
shard spans under its pool span — one tree spans the whole execution,
threads included.

Overhead discipline
-------------------
Tracing is on by default and switches off under ``REPRO_TRACE=0``
(also ``off``/``false``/``no``).  Every entry point checks a
thread-local *active trace* first: with no active trace (disabled, or
code running outside a planner entry point) :func:`span`,
:func:`stage_timer` and :func:`add_counter` return after one attribute
lookup — results are byte-identical either way, because spans only
ever *observe*.  An untraced run therefore carries no stage split.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

#: Kill switch: ``0``/``off``/``false``/``no`` disables tracing.
TRACE_ENV = "REPRO_TRACE"

#: Span kind of the per-stage timers (the only spans
#: :func:`stage_totals` sums — structural spans never leak into the
#: stage totals).
STAGE_KIND = "stage"


def tracing_enabled() -> bool:
    """Whether :func:`trace` roots real traces (``REPRO_TRACE``)."""
    flag = os.environ.get(TRACE_ENV, "1").strip().lower()
    return flag not in ("0", "off", "false", "no")


class Span:
    """One timed node of a trace tree.

    ``seconds`` is the monotonic (``perf_counter``) duration; ``wall``
    is the epoch start time (``time.time()``), which is what makes
    spans from different threads and processes line up on one export
    timeline.  ``proc`` is the process id and ``tid`` the native id of
    the thread that ran the span (shards overlap on threads, so the
    export gives each thread its own track).  ``attrs`` describe the
    work (engine, shard range, worker count), ``counters`` count it
    (candidates, verified pairs).
    """

    __slots__ = (
        "name", "kind", "attrs", "counters", "children",
        "wall", "seconds", "proc", "tid",
    )

    def __init__(
        self,
        name: str,
        kind: str = "span",
        attrs: dict | None = None,
        proc: int | None = None,
        tid: int | None = None,
    ):
        self.name = name
        self.kind = kind
        self.attrs = dict(attrs) if attrs else {}
        self.counters: dict = {}
        self.children: list[Span] = []
        self.wall = time.time()
        self.seconds = 0.0
        self.proc = os.getpid() if proc is None else proc
        self.tid = threading.get_native_id() if tid is None else tid

    # ------------------------------------------------------------------
    # mutation under an open span
    # ------------------------------------------------------------------
    def add(self, counter: str, n=1) -> None:
        """Bump one counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def set(self, **attrs) -> None:
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)

    # ------------------------------------------------------------------
    # tree access
    # ------------------------------------------------------------------
    def walk(self):
        """Every span of the subtree, pre-order (self first)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """All spans named ``name`` in the subtree, pre-order."""
        return [s for s in self.walk() if s.name == name]

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, kind={self.kind!r}, "
            f"seconds={self.seconds:.6f}, children={len(self.children)})"
        )

    # ------------------------------------------------------------------
    # serialization (the JSONL sink)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form of the subtree (JSON-able)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "wall": self.wall,
            "seconds": self.seconds,
            "proc": self.proc,
            "tid": self.tid,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a subtree from :meth:`to_dict` output."""
        span = cls.__new__(cls)
        span.name = str(data["name"])
        span.kind = str(data.get("kind", "span"))
        span.attrs = dict(data.get("attrs") or {})
        span.counters = dict(data.get("counters") or {})
        span.wall = float(data.get("wall", 0.0))
        span.seconds = float(data.get("seconds", 0.0))
        span.proc = int(data.get("proc", 0))
        # Older records carry no thread id: one track per process.
        span.tid = int(data.get("tid", span.proc))
        span.children = [
            cls.from_dict(child) for child in data.get("children") or ()
        ]
        return span


# ----------------------------------------------------------------------
# the thread-local active trace
# ----------------------------------------------------------------------

_STATE = threading.local()


def _stack() -> list[Span] | None:
    return getattr(_STATE, "stack", None)


def current_span() -> Span | None:
    """The innermost open span of this thread's trace (None outside)."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def trace(name: str, **attrs):
    """Root a new trace (yields its root span, or None when disabled).

    A body that raises marks the root ``error=<exception class name>``
    before the exception propagates.

    A ``trace`` opened while another is already active degrades to a
    plain child :func:`span` — nested planner entry points join the
    enclosing tree instead of fighting over the thread-local root.
    """
    if _stack():
        with span(name, **attrs) as nested:
            yield nested
        return
    if not tracing_enabled():
        yield None
        return
    root = Span(name, attrs=attrs)
    _STATE.stack = [root]
    t0 = time.perf_counter()
    try:
        yield root
    except BaseException as exc:
        root.attrs["error"] = type(exc).__name__
        raise
    finally:
        root.seconds = time.perf_counter() - t0
        _STATE.stack = None


@contextmanager
def span(name: str, *, kind: str = "span", **attrs):
    """Open a child span under the active trace (no-op outside one).

    A body that raises marks the span ``error=<exception class name>``;
    the exception then unwinds through, and marks, every enclosing
    span up to the root.
    """
    stack = _stack()
    if not stack:
        yield None
        return
    node = Span(
        name, kind=kind, attrs=attrs, proc=stack[0].proc, tid=stack[0].tid
    )
    stack[-1].children.append(node)
    stack.append(node)
    t0 = time.perf_counter()
    try:
        yield node
    except BaseException as exc:
        node.attrs["error"] = type(exc).__name__
        raise
    finally:
        node.seconds = time.perf_counter() - t0
        stack.pop()


def add_counter(name: str, n=1) -> None:
    """Bump a counter on the innermost open span (no-op outside)."""
    stack = _stack()
    if stack:
        counters = stack[-1].counters
        counters[name] = counters.get(name, 0) + n


def set_attr(**attrs) -> None:
    """Attach attributes to the innermost open span (no-op outside)."""
    stack = _stack()
    if stack:
        stack[-1].attrs.update(attrs)


def stage_timer(key: str):
    """Time a ``with`` block as a ``kind="stage"`` span named ``key``
    of the active trace (no-op outside one).

    The single seam every per-stage measurement flows through: the
    planner derives a report's stage split from these spans
    (:func:`stage_totals`).
    """
    return span(key, kind=STAGE_KIND)


# ----------------------------------------------------------------------
# derivations over a finished tree
# ----------------------------------------------------------------------

def stage_totals(root: Span) -> dict[str, float]:
    """Per-stage wall seconds summed over the tree.

    Only ``kind="stage"`` spans contribute (structural spans like the
    plan root or the pool coordinator would double-count their
    children).  Nested stage spans each contribute their own duration.
    """
    totals: dict[str, float] = {}
    for node in root.walk():
        if node.kind == STAGE_KIND:
            totals[node.name] = totals.get(node.name, 0.0) + node.seconds
    return totals


def counter_totals(root: Span) -> dict:
    """Every counter summed over the tree (shard spans included)."""
    totals: dict = {}
    for node in root.walk():
        for key, value in node.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals
