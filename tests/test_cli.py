"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.io import load_points


def read_pairs(path):
    out = []
    with open(path) as f:
        for line in f:
            p_oid, q_oid, cx, cy, r = line.split()
            out.append((int(p_oid), int(q_oid), float(cx), float(cy), float(r)))
    return out


class TestGenerate:
    def test_uniform(self, tmp_path, capsys):
        out = str(tmp_path / "u.txt")
        assert main(["generate", "--kind", "uniform", "-n", "50",
                     "--seed", "3", "-o", out]) == 0
        assert len(load_points(out)) == 50
        assert "wrote 50 points" in capsys.readouterr().out

    def test_gaussian(self, tmp_path):
        out = str(tmp_path / "g.txt")
        assert main(["generate", "--kind", "gaussian", "-n", "40", "-w", "3",
                     "--seed", "4", "-o", out]) == 0
        assert len(load_points(out)) == 40

    def test_start_oid(self, tmp_path):
        out = str(tmp_path / "u.txt")
        main(["generate", "-n", "5", "--start-oid", "100", "-o", out])
        assert [p.oid for p in load_points(out)] == list(range(100, 105))


class TestJoin:
    @pytest.fixture
    def files(self, tmp_path):
        p = str(tmp_path / "p.txt")
        q = str(tmp_path / "q.txt")
        main(["generate", "-n", "80", "--seed", "1", "-o", p])
        main(["generate", "-n", "70", "--seed", "2", "--start-oid", "80", "-o", q])
        return p, q

    def test_join_writes_pairs(self, files, tmp_path):
        p, q = files
        out = str(tmp_path / "pairs.txt")
        assert main(["join", p, q, "--engine", "obj", "-o", out]) == 0
        pairs = read_pairs(out)
        assert pairs
        # Output oids come from the two inputs.
        assert all(a < 80 <= b for a, b, *_ in pairs)

    def test_methods_agree_via_cli(self, files, tmp_path):
        p, q = files
        results = {}
        for method in ("obj", "gabriel", "brute"):
            out = str(tmp_path / f"{method}.txt")
            main(["join", p, q, "--engine", method, "-o", out])
            results[method] = {(a, b) for a, b, *_ in read_pairs(out)}
        assert results["obj"] == results["gabriel"] == results["brute"]

    def test_join_to_stdout(self, files, capsys):
        p, q = files
        assert main(["join", p, q]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip()
        assert "pairs" in captured.err

    def test_radius_field_consistent(self, files, tmp_path):
        p, q = files
        out = str(tmp_path / "pairs.txt")
        main(["join", p, q, "-o", out])
        points = {pt.oid: pt for pt in load_points(p) + load_points(q)}
        for a, b, cx, cy, r in read_pairs(out):
            pa, pb = points[a], points[b]
            assert ((pa.x - cx) ** 2 + (pa.y - cy) ** 2) ** 0.5 == pytest.approx(r)
            assert ((pb.x - cx) ** 2 + (pb.y - cy) ** 2) ** 0.5 == pytest.approx(r)


class TestSelfJoin:
    def test_selfjoin(self, tmp_path):
        pts = str(tmp_path / "p.txt")
        out = str(tmp_path / "pairs.txt")
        main(["generate", "-n", "60", "--seed", "9", "-o", pts])
        assert main(["selfjoin", pts, "-o", out]) == 0
        pairs = read_pairs(out)
        assert pairs
        assert all(a < b for a, b, *_ in pairs)


class TestTopK:
    @pytest.fixture
    def files(self, tmp_path):
        p = str(tmp_path / "p.txt")
        q = str(tmp_path / "q.txt")
        main(["generate", "-n", "60", "--seed", "5", "-o", p])
        main(["generate", "-n", "60", "--seed", "6", "--start-oid", "60", "-o", q])
        return p, q

    def test_topk_reports_k_sorted_pairs(self, files, tmp_path):
        p, q = files
        out = str(tmp_path / "topk.txt")
        assert main(["topk", p, q, "-k", "7", "-o", out]) == 0
        pairs = read_pairs(out)
        assert len(pairs) == 7
        radii = [r for *_rest, r in pairs]
        assert radii == sorted(radii)

    def test_topk_are_the_smallest_join_pairs(self, files, tmp_path):
        p, q = files
        join_out = str(tmp_path / "all.txt")
        topk_out = str(tmp_path / "topk.txt")
        main(["join", p, q, "--engine", "gabriel", "-o", join_out])
        main(["topk", p, q, "-k", "5", "-o", topk_out])
        all_pairs = sorted(read_pairs(join_out), key=lambda t: t[4])
        top = read_pairs(topk_out)
        assert {(a, b) for a, b, *_ in top} == {
            (a, b) for a, b, *_ in all_pairs[:5]
        }

    def test_topk_engines_agree_via_cli(self, files, tmp_path):
        p, q = files
        results = {}
        for engine in ("auto", "array", "obj", "pointwise"):
            out = str(tmp_path / f"topk_{engine}.txt")
            assert main(["topk", p, q, "-k", "6", "--engine", engine,
                         "-o", out]) == 0
            results[engine] = read_pairs(out)
        assert (
            results["auto"] == results["array"]
            == results["obj"] == results["pointwise"]
        )

    def test_join_top_k(self, files, tmp_path, capsys):
        p, q = files
        via_join = str(tmp_path / "join.txt")
        via_topk = str(tmp_path / "topk.txt")
        assert main(["join", p, q, "--top-k", "4",
                     "--engine", "array", "-o", via_join]) == 0
        assert "top-4" in capsys.readouterr().err
        main(["topk", p, q, "-k", "4", "--engine", "array", "-o", via_topk])
        assert read_pairs(via_join) == read_pairs(via_topk)

    def test_top_k_flag_alone_selects_ordered_browsing(self, files, tmp_path):
        p, q = files
        out = str(tmp_path / "implied.txt")
        assert main(["join", p, q, "--top-k", "3", "-o", out]) == 0
        pairs = read_pairs(out)
        assert len(pairs) == 3
        radii = [r for *_rest, r in pairs]
        assert radii == sorted(radii)

    def test_top_k_with_a_bulk_only_engine_rejected(self, files, capsys):
        p, q = files
        assert main(["join", p, q, "--top-k", "3", "--engine", "inj"]) == 2
        assert "unknown top-k engine 'inj'" in capsys.readouterr().err

    def test_topk_auto_explain(self, files, capsys):
        p, q = files
        assert main(["topk", p, q, "-k", "3", "--explain"]) == 0
        assert "plan: engine=" in capsys.readouterr().err


class TestResemblance:
    @pytest.fixture
    def files(self, tmp_path):
        p = str(tmp_path / "p.txt")
        q = str(tmp_path / "q.txt")
        main(["generate", "-n", "80", "--seed", "7", "-o", p])
        main(["generate", "-n", "80", "--seed", "8", "--start-oid", "80", "-o", q])
        return p, q

    def test_eps_resemblance(self, files, capsys):
        p, q = files
        assert main(["resemblance", p, q, "--join", "eps", "--param", "400"]) == 0
        out = capsys.readouterr().out
        assert "precision=" in out and "recall=" in out

    def test_cij_needs_no_param(self, files, capsys):
        p, q = files
        assert main(["resemblance", p, q, "--join", "cij"]) == 0
        out = capsys.readouterr().out
        assert "recall=100.0%" in out

    def test_knn_resemblance(self, files, capsys):
        p, q = files
        assert main(["resemblance", p, q, "--join", "knn", "--param", "1"]) == 0
        assert "knn vs RCJ" in capsys.readouterr().out

    def test_kcp_resemblance(self, files, capsys):
        p, q = files
        assert main(["resemblance", p, q, "--join", "kcp", "--param", "50"]) == 0
        assert "kcp vs RCJ" in capsys.readouterr().out

    def test_param_required_for_eps(self, files, capsys):
        p, q = files
        assert main(["resemblance", p, q, "--join", "eps"]) == 2
        assert "--param is required" in capsys.readouterr().err


class TestTraceCLI:
    @pytest.fixture
    def files(self, tmp_path):
        p = str(tmp_path / "p.txt")
        q = str(tmp_path / "q.txt")
        main(["generate", "-n", "90", "--seed", "11", "-o", p])
        main(["generate", "-n", "90", "--seed", "12", "--start-oid", "90", "-o", q])
        return p, q

    def test_explain_keeps_stdout_machine_parseable(self, files, capsys):
        """--explain diagnostics (plan + trace tree) go to stderr only:
        every stdout line must parse as a 5-field pair record."""
        p, q = files
        assert main(["join", p, q, "--engine", "auto", "--explain"]) == 0
        captured = capsys.readouterr()
        assert "plan: engine=" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines
        for line in lines:
            p_oid, q_oid, cx, cy, r = line.split()
            int(p_oid), int(q_oid)
            float(cx), float(cy), float(r)

    def test_explain_names_the_pipeline_that_ran(self, files, capsys):
        p, q = files
        assert main(["join", p, q, "--engine", "array", "--explain"]) == 0
        assert (
            "pipeline=delaunay -> verify -> collect"
            in capsys.readouterr().err
        )
        assert main(
            ["topk", p, q, "-k", "4", "--engine", "array", "--explain"]
        ) == 0
        assert (
            "pipeline=band(k_hint=4) -> prune -> verify -> take-smallest(k=4)"
            in capsys.readouterr().err
        )

    def test_trace_file_and_show_round_trip(self, files, tmp_path, capsys):
        p, q = files
        sink = str(tmp_path / "run.trace.jsonl")
        assert main(["join", p, q, "--engine", "array",
                     "--trace", sink]) == 0
        capsys.readouterr()
        assert main(["trace", "show", sink]) == 0
        shown = capsys.readouterr().out
        assert "join" in shown and "verify" in shown

    def test_trace_export_writes_valid_perfetto_json(
        self, files, tmp_path, capsys
    ):
        import json

        from repro.obs.export import validate_chrome

        p, q = files
        sink = str(tmp_path / "run.trace.jsonl")
        exported = str(tmp_path / "run.perfetto.json")
        main(["join", p, q, "--engine", "array", "--trace", sink])
        assert main(["trace", "export", sink, "-o", exported]) == 0
        with open(exported) as f:
            doc = json.load(f)
        validate_chrome(doc)
        names = {e["name"] for e in doc["traceEvents"]}
        assert "join" in names

    def test_trace_flag_with_tracing_disabled_warns(
        self, files, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE", "0")
        p, q = files
        sink = str(tmp_path / "run.trace.jsonl")
        assert main(["join", p, q, "--engine", "array",
                     "--trace", sink]) == 0
        captured = capsys.readouterr()
        assert "no trace captured" in captured.err
        assert not (tmp_path / "run.trace.jsonl").exists()

    def test_trace_show_missing_records_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", "show", str(empty)]) == 1
        assert "no trace records" in capsys.readouterr().err


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_engine_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["join", "a", "b", "--engine", "quantum"])

    @pytest.mark.parametrize("flag", ["--method", "--mode"])
    def test_removed_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            main(["join", "a", "b", flag, "obj"])

    def test_unknown_resemblance_join_rejected(self):
        with pytest.raises(SystemExit):
            main(["resemblance", "a", "b", "--join", "voronoi"])


class TestFamilyJoinCLI:
    """``repro join --family ...``: the same pairs as the library call,
    diagnostics on stderr only, and argument errors as exit code 2."""

    PARAMS = {
        "epsilon": ("400", {"eps": 400.0}),
        "knn": ("2", {"k": 2}),
        "kcp": ("15", {"k": 15}),
        "cij": (None, {}),
    }

    @pytest.fixture
    def files(self, tmp_path):
        p = str(tmp_path / "p.txt")
        q = str(tmp_path / "q.txt")
        main(["generate", "-n", "70", "--seed", "21", "-o", p])
        main(["generate", "-n", "60", "--seed", "22", "--start-oid", "70", "-o", q])
        return p, q

    @staticmethod
    def _argv(files, family, *extra):
        param, _kw = TestFamilyJoinCLI.PARAMS[family]
        argv = ["join", *files, "--family", family, *extra]
        return argv + ([] if param is None else ["--param", param])

    @pytest.mark.parametrize("family", ["epsilon", "knn", "kcp", "cij"])
    def test_stdout_pairs_equal_the_library_run(self, files, family, capsys):
        from repro.engine import run_join

        assert main(self._argv(files, family)) == 0
        printed = [
            (int(a), int(b), float(cx), float(cy), float(r))
            for a, b, cx, cy, r in (
                line.split() for line in capsys.readouterr().out.splitlines()
            )
        ]
        _param, kwargs = self.PARAMS[family]
        report = run_join(
            load_points(files[0]), load_points(files[1]), family=family,
            **kwargs,
        )
        assert printed == [
            (pr.p.oid, pr.q.oid, *pr.center, pr.radius) for pr in report.pairs
        ]
        assert printed

    @pytest.mark.parametrize("family", ["epsilon", "knn", "kcp", "cij"])
    @pytest.mark.parametrize("engine", ["auto", "array"])
    def test_explain_writes_only_to_stderr(self, files, family, engine, capsys):
        assert main(self._argv(files, family, "--engine", engine)) == 0
        quiet = capsys.readouterr().out
        assert main(self._argv(files, family, "--engine", engine,
                               "--explain")) == 0
        captured = capsys.readouterr()
        assert captured.out == quiet
        assert "plan: engine=" in captured.err
        assert "pipeline:" in captured.err

    def test_top_k_rejected_for_kcp(self, files, capsys):
        assert main(self._argv(files, "kcp", "--top-k", "3")) == 2
        assert "--family rcj only" in capsys.readouterr().err

    def test_rcj_takes_no_param(self, files, capsys):
        assert main(["join", *files, "--family", "rcj", "--param", "3"]) == 2
        assert "--param" in capsys.readouterr().err

    def test_epsilon_without_param_names_eps(self, files, capsys):
        assert main(["join", *files, "--family", "epsilon"]) == 2
        assert "requires eps" in capsys.readouterr().err

    def test_fractional_k_rejected_naming_k(self, files, capsys):
        assert main(["join", *files, "--family", "knn", "--param", "2.5"]) == 2
        assert "k must be an integer" in capsys.readouterr().err
