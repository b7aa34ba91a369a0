"""The hierarchical span tracer: one instrumentation layer for
planning, benchmarking and debugging.

A *trace* is a tree of :class:`Span` records rooted at one planner
entry point (``run_join`` / ``run_topk`` / ``run_family_join``).  Code
under an active trace opens child spans with the :func:`span` context
manager, attaches attributes (``span("pool", workers=4)``) and bumps
counters (:func:`add_counter`); the per-stage wall times the cost model
consumes are ordinary spans of ``kind="stage"`` created by
:func:`stage_timer`, so ``JoinReport.stage_seconds`` and the
calibration observation records are *derived* from the trace tree
(:func:`stage_totals`) instead of hand-threaded dicts.

Worker processes root their own ``"shard"`` traces
(:mod:`repro.parallel.pool`), serialize them with :meth:`Span.to_dict`
through the result pickle, and the coordinator re-parents them under
its pool span with :meth:`Span.from_dict` — one tree spans the whole
execution, processes included.

Overhead discipline
-------------------
Tracing is on by default and switches off under ``REPRO_TRACE=0``
(also ``off``/``false``/``no``).  Every entry point checks a
thread-local *active trace* first: with no active trace (disabled, or
code running outside a planner entry point) :func:`span` and
:func:`add_counter` return after one attribute lookup and
:func:`stage_timer` degrades to the bare accumulator path it replaced —
results are byte-identical either way, because spans only ever
*observe*.

The dict accumulator of :func:`stage_timer` is kept deliberately: both
sinks are fed from the **same** ``perf_counter`` reading, so the
accumulated dict and :func:`stage_totals` over the tree agree exactly,
and direct kernel callers (tests, benches) that pass plain dicts keep
working without a trace.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

#: Kill switch: ``0``/``off``/``false``/``no`` disables tracing.
TRACE_ENV = "REPRO_TRACE"

#: Span kind of the per-stage timers (the only spans
#: :func:`stage_totals` sums — structural spans never leak into
#: ``stage_seconds``).
STAGE_KIND = "stage"


def tracing_enabled() -> bool:
    """Whether :func:`trace` roots real traces (``REPRO_TRACE``)."""
    flag = os.environ.get(TRACE_ENV, "1").strip().lower()
    return flag not in ("0", "off", "false", "no")


class Span:
    """One timed node of a trace tree.

    ``seconds`` is the monotonic (``perf_counter``) duration; ``wall``
    is the epoch start time (``time.time()``), which is what makes
    spans from different processes line up on one export timeline.
    ``attrs`` describe the work (engine, shard range, worker count),
    ``counters`` count it (candidates, verified pairs, bytes shipped).
    """

    __slots__ = (
        "name", "kind", "attrs", "counters", "children",
        "wall", "seconds", "proc",
    )

    def __init__(
        self,
        name: str,
        kind: str = "span",
        attrs: dict | None = None,
        proc: int | None = None,
    ):
        self.name = name
        self.kind = kind
        self.attrs = dict(attrs) if attrs else {}
        self.counters: dict = {}
        self.children: list[Span] = []
        self.wall = time.time()
        self.seconds = 0.0
        self.proc = os.getpid() if proc is None else proc

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
    # serialization (the worker -> coordinator seam, and the JSONL sink)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data form of the subtree (picklable, JSON-able)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "wall": self.wall,
            "seconds": self.seconds,
            "proc": self.proc,
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
        span.children = [
            cls.from_dict(child) for child in data.get("children") or ()
        ]
        return span

    def adopt(self, data: dict) -> "Span":
        """Re-parent a serialized subtree (a worker's shard trace)
        under this span; returns the adopted child."""
        child = Span.from_dict(data)
        self.children.append(child)
        return child


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


def reset() -> None:
    """Drop any active trace on this thread.

    Pool initializers call this: ``fork``-started workers inherit the
    coordinator's thread-local stack, and without a reset a worker's
    :func:`trace` would degrade to a child span of the *coordinator's*
    tree (wrong process id, lost subtree) instead of rooting its own.
    """
    _STATE.stack = None


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
    node = Span(name, kind=kind, attrs=attrs, proc=stack[0].proc)
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


@contextmanager
def stage_timer(acc: dict | None, key: str):
    """Accumulate the wall time of a ``with`` block into ``acc[key]``
    *and* record it as a ``kind="stage"`` span of the active trace.

    The single seam every per-stage measurement flows through: the
    planner derives :attr:`JoinReport.stage_seconds` from the stage
    spans (:func:`stage_totals`), while direct kernel callers keep the
    plain-dict contract.  Both sinks receive the same ``perf_counter``
    reading, so they can never disagree.  ``acc=None`` outside a trace
    times nothing and costs one attribute lookup.
    """
    stack = _stack()
    if acc is None and not stack:
        yield
        return
    node = None
    if stack:
        node = Span(key, kind=STAGE_KIND, proc=stack[0].proc)
        stack[-1].children.append(node)
        stack.append(node)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        if node is not None:
            node.seconds = dt
            stack.pop()
        if acc is not None:
            acc[key] = acc.get(key, 0.0) + dt


# ----------------------------------------------------------------------
# derivations over a finished tree
# ----------------------------------------------------------------------

def stage_totals(root: Span) -> dict[str, float]:
    """Per-stage wall seconds summed over the tree — the trace-derived
    replacement of the hand-threaded ``stage_seconds`` dicts.

    Only ``kind="stage"`` spans contribute (structural spans like the
    plan root or the pool coordinator would double-count their
    children).  Nested stage spans each contribute their own duration,
    matching the accumulator semantics of :func:`stage_timer` exactly.
    """
    totals: dict[str, float] = {}
    for node in root.walk():
        if node.kind == STAGE_KIND:
            totals[node.name] = totals.get(node.name, 0.0) + node.seconds
    return totals


def counter_totals(root: Span) -> dict:
    """Every counter summed over the tree (worker spans included)."""
    totals: dict = {}
    for node in root.walk():
        for key, value in node.counters.items():
            totals[key] = totals.get(key, 0) + value
    return totals
