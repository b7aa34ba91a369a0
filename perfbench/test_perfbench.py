"""Tests of the repo benchmark: its output contract, failure
accounting and answer checks, on the reduced ``--smoke`` inputs."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import scenarios  # noqa: E402
from repro.datasets.fixtures import clustered_pair  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace, env=None, cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0.5",
            "--trace", str(trace), "--smoke",
        ],
        cwd=cwd,
        env={**os.environ, **(env or {})},
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in section} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_an_injected_failing_request_lands_in_failed_frac():
    result = _result(
        _bench("query-session", 1, env={scenarios.FAIL_ENV: "kcp"})
    )
    assert result["correct"]  # a failure is not a wrong answer
    assert result["failed"] >= 1
    frac = result["metrics"]["failed_frac"]["value"]
    assert frac == pytest.approx(result["failed"] / result["attempted"])
    assert 0 < frac < 1  # the run went on past the failures


def test_without_the_package_source_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {"PYTHONPATH": ""}
    proc = _bench("bulk-join", 0, env=env, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_tampered_digest_is_caught(monkeypatch):
    monkeypatch.setenv("REPRO_CALIBRATION", "0")
    data = scenarios.make_inputs(5, scenarios.SMOKE)
    ledger = scenarios.Ledger()
    scenarios.closed_loop(scenarios.query_ops(data, 1), 1, ledger)
    expected = scenarios.query_reference(data)
    ledger.settle(expected)
    assert ledger.failed == 0
    n, digest = expected["epsilon"].split(":")
    expected["epsilon"] = f"{n}:{'0' * len(digest)}"
    ledger.settle(expected)
    assert ledger.mismatched == ledger.failed == 1
    assert [r.kind for r in ledger.records if not r.ok] == ["epsilon"]


def test_a_diverged_fleet_state_is_caught(monkeypatch):
    monkeypatch.setenv("REPRO_CALIBRATION", "0")
    fleet = scenarios.Fleet.build(scenarios.SMOKE)
    ledger = scenarios.Ledger()
    rec, pairs, _batch = fleet.step(ledger)
    fleet.check(rec, pairs)
    assert rec.ok
    fleet.check(rec, pairs[1:])
    assert rec.mismatch and ledger.failed == 1


def test_the_clustered_pair_is_the_same_fixture_for_every_seed():
    sizes = dict(scenarios.SMOKE, n_p=300, n_q=400)
    fixture = clustered_pair(300, 400, seed=1, w=10)
    for seed in (1, 2):
        data = scenarios.make_inputs(seed, sizes)
        assert [
            [(p.x, p.y, p.oid) for p in side] for side in data["clustered"]
        ] == [[(p.x, p.y, p.oid) for p in side] for side in fixture]
    uniform_1 = scenarios.make_inputs(1, sizes)["uniform"][0]
    uniform_2 = scenarios.make_inputs(2, sizes)["uniform"][0]
    assert [p.x for p in uniform_1] != [p.x for p in uniform_2]


def _session_members(sid):
    members = []
    for entry in os.listdir("/proc"):
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if entry.isdigit() and int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
def test_no_process_outlives_a_run():
    # The resource tracker (started by the first shared-memory block)
    # and a stray child must both be stopped before the run exits.
    script = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "import run\n"
        "from multiprocessing import shared_memory\n"
        "block = shared_memory.SharedMemory(create=True, size=64)\n"
        "block.close(); block.unlink()\n"
        "subprocess.Popen(['sleep', '60'])\n"
        "run.stop_children(grace_s=1.0)\n"
        "assert run.child_pids() == [], run.child_pids()\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], start_new_session=True
    )
    assert proc.wait(timeout=60) == 0
    assert _session_members(proc.pid) == []
