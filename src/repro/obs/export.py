"""Trace exporters: JSONL sink, Chrome trace-event / Perfetto JSON,
and a rendered per-stage tree for ``--explain`` / ``repro trace show``.

The JSONL sink is the on-disk interchange format (one span per line,
pre-order, parent links by id) — ``repro trace show`` and ``repro
trace export`` both consume it.  The Chrome form loads directly into
https://ui.perfetto.dev or ``chrome://tracing``.
"""

from __future__ import annotations

import json

from repro.obs.trace import Span, counter_totals

#: Schema tag written into every JSONL trace line.
JSONL_VERSION = 1


# ----------------------------------------------------------------------
# JSONL sink
# ----------------------------------------------------------------------

def span_records(root: Span) -> list[dict]:
    """Flatten a trace tree to per-span records (pre-order, ids are
    pre-order indexes, ``parent`` is None for the root)."""
    records: list[dict] = []
    ids: dict[int, int] = {}

    def visit(node: Span, parent: int | None) -> None:
        sid = len(records)
        ids[id(node)] = sid
        records.append(
            {
                "v": JSONL_VERSION,
                "id": sid,
                "parent": parent,
                "name": node.name,
                "kind": node.kind,
                "wall": node.wall,
                "seconds": node.seconds,
                "proc": node.proc,
                "tid": node.tid,
                "attrs": dict(node.attrs),
                "counters": dict(node.counters),
            }
        )
        for child in node.children:
            visit(child, sid)

    visit(root, None)
    return records


def write_jsonl(root: Span, path: str) -> int:
    """Append one run's trace to a JSONL sink; returns spans written."""
    records = span_records(root)
    with open(path, "a", encoding="utf-8") as sink:
        for record in records:
            sink.write(json.dumps(record, sort_keys=True) + "\n")
    return len(records)


def read_jsonl(path: str) -> list[Span]:
    """Rebuild the trace trees stored in a JSONL sink (one root per
    traced run, in file order).  Corrupt lines are skipped."""
    roots: list[Span] = []
    nodes: dict[int, Span] = {}
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            name = record["name"]
            sid = int(record["id"])
            parent = record["parent"]
        except (ValueError, KeyError, TypeError):
            continue
        node = Span.from_dict({**record, "name": name, "children": ()})
        if parent is None:
            roots.append(node)
            nodes = {sid: node}
        elif parent in nodes:
            nodes[parent].children.append(node)
            nodes[sid] = node
    return roots


# ----------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ----------------------------------------------------------------------

def to_chrome(root: Span) -> dict:
    """Chrome trace-event JSON for one trace tree.

    Complete events (``ph="X"``) on a timeline relative to the root's
    wall-clock start; each OS process becomes a trace-event *pid* and
    each thread a *tid*, so pool shards, which overlap on threads,
    render as their own tracks in Perfetto instead of mis-nesting.
    """
    events: list[dict] = []
    procs: dict[int, str] = {}

    def visit(node: Span) -> None:
        if node.proc not in procs:
            role = "coordinator" if node.proc == root.proc else "worker"
            procs[node.proc] = f"{role}-{node.proc}"
        args = dict(node.attrs)
        for key, value in node.counters.items():
            args[f"counter.{key}"] = value
        events.append(
            {
                "name": node.name,
                "cat": node.kind,
                "ph": "X",
                "ts": max(0.0, (node.wall - root.wall) * 1e6),
                "dur": node.seconds * 1e6,
                "pid": node.proc,
                "tid": node.tid,
                "args": args,
            }
        )
        for child in node.children:
            visit(child)

    visit(root)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": pid,
            "args": {"name": label},
        }
        for pid, label in sorted(procs.items())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def validate_chrome(doc: dict) -> None:
    """Raise ValueError unless ``doc`` is well-formed trace-event JSON
    (the schema check the CI trace smoke job runs after export)."""
    if not isinstance(doc, dict) or not isinstance(
        doc.get("traceEvents"), list
    ):
        raise ValueError("trace document must carry a traceEvents list")
    if not doc["traceEvents"]:
        raise ValueError("traceEvents is empty")
    for i, event in enumerate(doc["traceEvents"]):
        if not isinstance(event, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        if event.get("ph") not in ("X", "M"):
            raise ValueError(f"traceEvents[{i}] has unsupported ph")
        for field in ("name", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{i}] lacks {field!r}")
        if event["ph"] == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    raise ValueError(
                        f"traceEvents[{i}].{field} must be >= 0"
                    )


# ----------------------------------------------------------------------
# rendered tree (``--explain`` / ``repro trace show``)
# ----------------------------------------------------------------------

def _describe(node: Span) -> str:
    parts = [f"{node.name}  {node.seconds * 1e3:.3f} ms"]
    if node.attrs:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(node.attrs.items()))
        parts.append(f"[{attrs}]")
    if node.counters:
        counters = " ".join(
            f"{k}={v}" for k, v in sorted(node.counters.items())
        )
        parts.append(f"({counters})")
    return "  ".join(parts)


def render_tree(root: Span, max_depth: int | None = None) -> str:
    """Human-readable per-stage tree of one trace."""
    lines = [_describe(root)]

    def visit(node: Span, prefix: str, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            lines.append(prefix + ("└─ " if last else "├─ ") + _describe(child))
            visit(child, prefix + ("   " if last else "│  "), depth + 1)

    visit(root, "", 1)
    totals = counter_totals(root)
    if totals:
        summary = " ".join(f"{k}={v}" for k, v in sorted(totals.items()))
        lines.append(f"totals: {summary}")
    return "\n".join(lines)
