#!/usr/bin/env python3
"""Regenerate ``digests.json``: the answers of the pinned seed.

Run from the repository root::

    python3 perfbench/pin_digests.py

Every digest comes from the serial ``array`` engine and is
cross-checked against an independent route: the Delaunay-based
``gabriel`` RCJ for the full joins, the R-tree incremental distance
join for the top-k prefixes, and the pointwise family joins.  The
script refuses to write when any route disagrees.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (pins the environment before numpy loads)

run.pin_environment()

import scenarios as wl  # noqa: E402
from repro import run_join, run_topk  # noqa: E402


def timed(label: str, fn):
    t0 = time.perf_counter()
    out = fn()
    print(f"{label}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return out


def main() -> int:
    data = wl.make_inputs(run.PINNED_SEED, wl.FULL)
    expected = wl.query_reference(data)
    bulk = {}
    agree = True
    for name in ("uniform", "clustered"):
        pair = data[name]
        ref = wl.report_digest(timed(f"rcj {name} array", lambda: run_join(*pair, engine="array")))
        oracle = wl.report_digest(
            timed(f"rcj {name} gabriel", lambda: run_join(*pair, algorithm="gabriel"))
        )
        bulk[f"rcj_{name}"] = bulk[f"rcj_{name}_serial"] = ref
        agree &= oracle == ref
        topk = timed(
            f"topk {name} obj", lambda: run_topk(*pair, wl.TOPK_K, engine="obj")
        )
        agree &= wl.report_digest(topk, ordered=True) == expected[f"topk_{name}"]
    for family, pair, params in (
        ("kcp", data["uniform"], {"k": wl.KCP_K}),
        ("epsilon", data["uniform"], {"eps": wl.EPSILON}),
        ("knn", data["uniform"], {"k": wl.KNN_K}),
        ("cij", data["cij"], {}),
    ):
        report = timed(
            f"{family} pointwise",
            lambda: run_join(*pair, family=family, engine="pointwise", **params),
        )
        agree &= wl.report_digest(report) == expected[family]
    if not agree:
        print("an oracle disagrees with the array engine", file=sys.stderr)
        return 1
    doc = {"seed": run.PINNED_SEED, "bulk-join": bulk, "query-session": expected}
    (HERE / "digests.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
