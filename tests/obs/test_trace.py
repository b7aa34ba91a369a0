"""Unit tests for the span tracer and its exporters."""

from __future__ import annotations

import json
import threading

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
        assert rebuilt.tid == root.tid == threading.get_native_id()

    def test_from_dict_without_tid_uses_one_track_per_process(self):
        # Records written before spans carried a thread id.
        data = Span("join").to_dict()
        del data["tid"]
        assert Span.from_dict(data).tid == data["proc"]


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

    def test_disabled_stage_timer_opens_no_span(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "0")
        with trace("root") as root:
            with stage_timer("verify") as node:
                pass
        assert root is None and node is None


class TestStageTimer:
    def test_repeated_stages_sum_in_the_totals(self):
        with trace("root") as root:
            with stage_timer("verify"):
                pass
            with stage_timer("verify"):
                pass
        first, second = root.children
        totals = stage_totals(root)
        assert totals["verify"] == first.seconds + second.seconds

    def test_outside_trace_opens_no_span(self):
        with stage_timer("verify") as node:
            assert current_span() is None
        assert node is None

    def test_stage_spans_have_stage_kind(self):
        with trace("root") as root:
            with stage_timer("candidate"):
                pass
            with span("pool"):
                pass
        kinds = {node.name: node.kind for node in root.children}
        assert kinds == {"candidate": "stage", "pool": "span"}

    def test_structural_spans_never_leak_into_totals(self):
        with trace("root") as root:
            with span("pool"):
                with stage_timer("verify"):
                    pass
        assert set(stage_totals(root)) == {"verify"}

    def test_nested_stage_timers_each_count(self):
        with trace("root") as root:
            with stage_timer("candidate"):
                with stage_timer("candidate"):
                    pass
        outer = root.children[0]
        inner = outer.children[0]
        totals = stage_totals(root)
        assert totals["candidate"] == outer.seconds + inner.seconds
        assert totals["candidate"] > inner.seconds


class TestJsonlSink:
    def _sample(self):
        with trace("join", engine="array") as root:
            with span("pool", workers=2) as pool:
                pool.add("bytes-shipped", 1024)
                with stage_timer("verify"):
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
        assert [s.tid for s in rebuilt.walk()] == [s.tid for s in root.walk()]

    def test_older_records_without_tid_load(self, tmp_path):
        # A sink written before spans carried thread ids: every span
        # lands on its process's track.
        path = tmp_path / "old.jsonl"
        records = span_records(self._sample())
        with open(path, "w", encoding="utf-8") as sink:
            for record in records:
                del record["tid"]
                sink.write(json.dumps(record) + "\n")
        (rebuilt,) = read_jsonl(str(path))
        assert len(rebuilt) == len(records)
        assert {s.tid for s in rebuilt.walk()} == {rebuilt.proc}
        validate_chrome(to_chrome(rebuilt))

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
                with stage_timer("verify"):
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

    def test_threads_get_their_own_tid(self):
        # Pool shards root their traces on their own threads; their
        # overlapping events must land on their threads' tracks.
        shards: list[Span] = []

        def shard(lo):
            with trace("shard", lo=lo) as node:
                with stage_timer("knn"):
                    pass
            shards.append(node)

        with trace("join") as root:
            with span("pool") as pool:
                threads = [
                    threading.Thread(target=shard, args=(lo,))
                    for lo in (0, 1)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                pool.children.extend(shards)
        doc = to_chrome(root)
        validate_chrome(doc)
        tids = {
            e["name"] + str(e["args"].get("lo", "")): e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] in ("join", "pool", "shard")
        }
        assert tids["join"] == tids["pool"] == threading.get_native_id()
        assert tids["shard0"] != tids["join"]
        assert tids["shard1"] != tids["join"]
        # A shard's stage span shares its shard's track.
        assert all(n.tid == s.tid for s in shards for n in s.walk())
        knn = {e["tid"] for e in doc["traceEvents"] if e["name"] == "knn"}
        assert knn == {tids["shard0"], tids["shard1"]}
        pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert pids == {root.proc}

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
