"""Unit tests for the span tracer and its exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    read_jsonl,
    render_tree,
    span_records,
    to_chrome,
    validate_chrome,
    write_jsonl,
)
from repro.obs.trace import (
    Span,
    add_counter,
    counter_totals,
    current_span,
    set_attr,
    span,
    stage_timer,
    stage_totals,
    trace,
    tracing_enabled,
)


class TestSpanTree:
    def test_nesting_builds_the_tree(self):
        with trace("root") as root:
            with span("a") as a:
                with span("b"):
                    pass
            with span("c"):
                pass
        assert [child.name for child in root.children] == ["a", "c"]
        assert [child.name for child in a.children] == ["b"]
        assert len(root) == 4
        assert root.seconds > 0.0
        assert all(node.seconds >= 0.0 for node in root.walk())

    def test_find_and_counters(self):
        with trace("root") as root:
            with span("shard"):
                add_counter("candidates", 10)
                add_counter("candidates", 5)
            with span("shard"):
                add_counter("candidates", 7)
                set_attr(lo=3)
        shards = root.find("shard")
        assert len(shards) == 2
        assert shards[0].counters == {"candidates": 15}
        assert shards[1].attrs == {"lo": 3}
        assert counter_totals(root) == {"candidates": 22}

    def test_current_span_tracks_innermost(self):
        assert current_span() is None
        with trace("root") as root:
            assert current_span() is root
            with span("child") as child:
                assert current_span() is child
            assert current_span() is root
        assert current_span() is None

    def test_span_outside_trace_is_noop(self):
        with span("orphan") as node:
            add_counter("x")
            set_attr(y=1)
        assert node is None

    def test_nested_trace_degrades_to_span(self):
        with trace("outer") as outer:
            with trace("inner") as inner:
                pass
        assert inner is not None
        assert inner in outer.children

    def test_exception_unwinds_the_stack(self):
        with pytest.raises(RuntimeError):
            with trace("root"):
                with span("child"):
                    raise RuntimeError("boom")
        assert current_span() is None

    def test_failing_span_and_root_carry_error(self):
        with pytest.raises(KeyError):
            with trace("root") as root:
                with span("ok") as ok:
                    pass
                with span("outer") as outer:
                    with span("failing") as failing:
                        raise KeyError("boom")
        assert failing.attrs["error"] == "KeyError"
        assert outer.attrs["error"] == "KeyError"
        assert root.attrs["error"] == "KeyError"
        assert "error" not in ok.attrs

    def test_to_from_dict_round_trip(self):
        with trace("root", engine="array") as root:
            with span("child") as child:
                child.add("candidates", 3)
        rebuilt = Span.from_dict(root.to_dict())
        assert rebuilt.name == "root"
        assert rebuilt.attrs == {"engine": "array"}
        assert rebuilt.children[0].counters == {"candidates": 3}
        assert rebuilt.children[0].seconds == child.seconds
        assert rebuilt.proc == root.proc

    def test_adopt_reparents_a_serialized_tree(self):
        with trace("shard") as shard:
            with span("verify"):
                pass
        parent = Span("pool")
        child = parent.adopt(shard.to_dict())
        assert child in parent.children
        assert child.find("verify")


class TestKillSwitch:
    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert tracing_enabled()

    @pytest.mark.parametrize("off", ["0", "off", "false", "no"])
    def test_disables_tracing(self, monkeypatch, off):
        monkeypatch.setenv("REPRO_TRACE", off)
        assert not tracing_enabled()
        with trace("root") as root:
            with span("child") as child:
                add_counter("x")
        assert root is None and child is None

    def test_disabled_stage_timer_still_accumulates(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        acc: dict = {}
        with trace("root"):
            with stage_timer(acc, "verify"):
                pass
        assert acc["verify"] >= 0.0


class TestStageTimer:
    def test_dict_and_tree_measure_the_same_instant(self):
        acc: dict = {}
        with trace("root") as root:
            with stage_timer(acc, "verify"):
                pass
            with stage_timer(acc, "verify"):
                pass
        totals = stage_totals(root)
        assert totals["verify"] == pytest.approx(acc["verify"], abs=0.0)

    def test_accumulates_onto_existing_totals(self):
        acc = {"verify": 100.0}
        with stage_timer(acc, "verify"):
            pass
        assert acc["verify"] > 100.0

    def test_none_acc_outside_trace_times_nothing(self):
        with stage_timer(None, "verify"):
            pass  # must simply not crash, and record nowhere

    def test_stage_spans_have_stage_kind(self):
        with trace("root") as root:
            with stage_timer({}, "candidate"):
                pass
            with span("pool"):
                pass
        kinds = {node.name: node.kind for node in root.children}
        assert kinds == {"candidate": "stage", "pool": "span"}

    def test_structural_spans_never_leak_into_totals(self):
        with trace("root") as root:
            with span("pool"):
                with stage_timer(None, "verify"):
                    pass
        assert set(stage_totals(root)) == {"verify"}

    def test_nested_stage_timers_each_count(self):
        acc: dict = {}
        with trace("root") as root:
            with stage_timer(acc, "candidate"):
                with stage_timer(acc, "candidate"):
                    pass
        totals = stage_totals(root)
        assert totals["candidate"] == pytest.approx(acc["candidate"], abs=0.0)
        # Nested timers double-count by design (the accumulator always
        # did); both sinks must agree on that.
        inner = root.children[0].children[0]
        assert totals["candidate"] > inner.seconds


class TestJsonlSink:
    def _sample(self):
        with trace("join", engine="array") as root:
            with span("pool", workers=2) as pool:
                pool.add("bytes-shipped", 1024)
                with stage_timer(None, "verify"):
                    pass
        return root

    def test_round_trip(self, tmp_path):
        root = self._sample()
        path = str(tmp_path / "trace.jsonl")
        n = write_jsonl(root, path)
        assert n == len(root) == 3
        (rebuilt,) = read_jsonl(path)
        assert [s.name for s in rebuilt.walk()] == [
            s.name for s in root.walk()
        ]
        assert counter_totals(rebuilt) == counter_totals(root)
        assert stage_totals(rebuilt) == stage_totals(root)

    def test_appends_runs(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(self._sample(), path)
        write_jsonl(self._sample(), path)
        assert len(read_jsonl(path)) == 2

    def test_corrupt_lines_skipped(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_jsonl(self._sample(), path)
        with open(path, "a") as f:
            f.write("{broken\n42\n")
        write_jsonl(self._sample(), path)
        assert len(read_jsonl(path)) == 2

    def test_records_carry_parent_links(self):
        records = span_records(self._sample())
        assert records[0]["parent"] is None
        assert records[1]["parent"] == 0
        assert records[2]["parent"] == 1


class TestChromeExport:
    def test_valid_and_complete(self):
        with trace("join") as root:
            with span("pool"):
                with stage_timer(None, "verify"):
                    pass
        doc = to_chrome(root)
        validate_chrome(doc)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"join", "pool", "verify"}
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(
            e["args"]["name"].startswith("coordinator") for e in metas
        )
        assert json.loads(json.dumps(doc)) == doc  # JSON-serializable

    def test_worker_processes_get_their_own_pid(self):
        root = Span("join")
        worker = Span("shard", proc=root.proc + 1)
        root.children.append(worker)
        doc = to_chrome(root)
        validate_chrome(doc)
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {root.proc, worker.proc}
        labels = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert labels == {
            f"coordinator-{root.proc}",
            f"worker-{worker.proc}",
        }

    def test_counters_become_args(self):
        with trace("join") as root:
            add_counter("pairs", 9)
        doc = to_chrome(root)
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["args"]["counter.pairs"] == 9

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"traceEvents": []},
            {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "tid": 1}]},
            {"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1}]},
            {"traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1}
            ]},
        ],
    )
    def test_validate_rejects_malformed(self, doc):
        with pytest.raises(ValueError):
            validate_chrome(doc)


class TestRenderTree:
    def test_renders_all_spans_with_attrs_and_counters(self):
        with trace("join", engine="array") as root:
            with span("pool", workers=2) as pool:
                pool.add("bytes-shipped", 64)
        text = render_tree(root)
        assert "join" in text and "pool" in text
        assert "engine=array" in text
        assert "bytes-shipped=64" in text
        assert "totals:" in text

    def test_depth_limit(self):
        with trace("a") as root:
            with span("b"):
                with span("c"):
                    pass
        text = render_tree(root, max_depth=1)
        assert "b" in text
        assert "c" not in text
