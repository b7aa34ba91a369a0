"""Pins every planner decision over a fixed request grid.

The planner's public names (``choose_plan``, ``choose_family_plan``,
``choose_topk_plan``, ``choose_dynamic_backend``) each decide an
engine, a worker count and the estimates behind them.  This suite runs
one grid of requests through all four — small, medium and inflated
large inputs, uniform and clustered data, worker budgets 1/2/4/16,
large, worker-shedding and 1-byte memory budgets, with no calibration
profile and with a canned one — and compares each decision with the
figures recorded in ``plan_pins.json``.

Only ``reasons`` is free to change wording; every other field of the
plan is part of the contract: ``(engine, workers, est_candidates,
est_bytes, density_factor, budget_bytes, predicted_seconds)`` (the
dynamic planner's ``(backend,)``).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.calibration.observations import host_fingerprint
from repro.calibration.profile import (
    CalibrationProfile,
    EngineModel,
    save_profile,
)
from repro.datasets.fixtures import clustered_pair, uniform_pair
from repro.engine.arrays import PointArray
from repro.parallel.costmodel import (
    choose_dynamic_backend,
    choose_family_plan,
    choose_plan,
    choose_topk_plan,
)

PINS = Path(__file__).with_name("plan_pins.json")

WORKERS = (1, 2, 4, 16)

#: name -> memory budget in bytes.  "shed" makes the inflated inputs'
#: pooled plans drop workers (or fall back) to fit.
BUDGETS = {"big": 1 << 40, "shed": 200_000_000, "one": 1}

FAMILIES = {
    "epsilon": {"eps": 40.0},
    "knn": {"k": 4},
    "kcp": {"k": 50},
    "cij": {},
}

TOPK_K = 50

DYNAMIC_BATCHES = (1, 64)

#: A canned profile whose crossovers fall inside the grid: serial wins
#: the small joins, two workers the medium ones, four the large ones;
#: the heap wins tiny top-k, the columnar backend large batches.
CANNED_MODELS = {
    "join/array": EngineModel(0.01, 2e-6, 4),
    "join/array-parallel@2": EngineModel(0.15, 1.2e-6, 4),
    "join/array-parallel@4": EngineModel(0.3, 0.8e-6, 4),
    "family:epsilon/array": EngineModel(0.005, 1e-6, 4),
    "family:epsilon/array-parallel@2": EngineModel(0.1, 0.5e-6, 4),
    "family:knn/array": EngineModel(0.005, 3e-6, 4),
    "family:knn/array-parallel@4": EngineModel(0.2, 1e-6, 4),
    "topk/array": EngineModel(0.02, 1e-6, 4),
    "topk/obj": EngineModel(0.001, 4e-5, 4),
    "dynamic/array": EngineModel(0.001, 1e-5, 4),
    "dynamic/obj": EngineModel(0.0005, 5e-5, 4),
}


def _fake_big(points, factor):
    arr = PointArray.from_points(points)
    n = len(arr) * factor

    class Inflated:
        x = np.resize(arr.x, n)
        y = np.resize(arr.y, n)

        def __len__(self):
            return n

    return Inflated()


@lru_cache(maxsize=None)
def _datasets() -> dict:
    uni_large = uniform_pair(400, 400, seed=65)
    clu_large = clustered_pair(400, 400, seed=66)
    return {
        "uniform-small": uniform_pair(300, 300, seed=61),
        "clustered-small": clustered_pair(300, 300, seed=62),
        "uniform-medium": uniform_pair(3000, 3000, seed=63),
        "clustered-medium": clustered_pair(3000, 3000, seed=64),
        "uniform-large": tuple(_fake_big(side, 500) for side in uni_large),
        "clustered-large": tuple(_fake_big(side, 500) for side in clu_large),
        "empty": ([], uniform_pair(10, 300, seed=67)[1]),
    }


def _plan_fields(plan) -> list:
    return [
        plan.engine,
        plan.workers,
        plan.est_candidates,
        plan.est_bytes,
        plan.density_factor,
        plan.budget_bytes,
        plan.predicted_seconds,
    ]


def _cases(planner: str):
    """``(key, thunk)`` for every grid request of one planner name."""
    for data_name, (points_p, points_q) in _datasets().items():
        for budget_name, budget in BUDGETS.items():
            if planner == "dynamic":
                for batch in DYNAMIC_BATCHES:
                    yield (
                        f"dynamic|{data_name}|b{batch}|{budget_name}",
                        lambda p=points_p, q=points_q, b=batch, m=budget: [
                            choose_dynamic_backend(
                                len(p), len(q), b, budget_bytes=m
                            )[0]
                        ],
                    )
                continue
            for workers in WORKERS:
                tag = f"{data_name}|w{workers}|{budget_name}"
                if planner == "plan":
                    yield f"plan|{tag}", lambda p=points_p, q=points_q, w=workers, m=budget: (
                        _plan_fields(
                            choose_plan(p, q, workers=w, budget_bytes=m)
                        )
                    )
                elif planner == "family":
                    for family, params in FAMILIES.items():
                        yield f"family:{family}|{tag}", lambda f=family, kw=params, p=points_p, q=points_q, w=workers, m=budget: (
                            _plan_fields(
                                choose_family_plan(
                                    f, p, q, workers=w, budget_bytes=m, **kw
                                )
                            )
                        )
                else:  # topk
                    yield f"topk|{tag}", lambda p=points_p, q=points_q, w=workers, m=budget: (
                        _plan_fields(
                            choose_topk_plan(
                                p, q, TOPK_K, workers=w, budget_bytes=m
                            )
                        )
                    )


def _same(got, want) -> bool:
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        if isinstance(a, float) and isinstance(b, float):
            if not math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0):
                return False
        elif a != b:
            return False
    return True


@pytest.fixture(params=["none", "canned"])
def profile(request, tmp_path, monkeypatch):
    """A fresh calibration store, empty or holding the canned profile."""
    monkeypatch.setenv("REPRO_CALIBRATION_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
    if request.param == "canned":
        save_profile(
            CalibrationProfile(
                host=host_fingerprint(),
                fitted_at="test",
                n_observations=8,
                models=dict(CANNED_MODELS),
            )
        )
    return request.param


@pytest.fixture(scope="module")
def pins() -> dict:
    with open(PINS) as f:
        return json.load(f)


@pytest.mark.parametrize("planner", ["plan", "family", "topk", "dynamic"])
def test_decisions_match_pins(planner, profile, pins):
    mismatched = []
    seen = 0
    for key, thunk in _cases(planner):
        key = f"{key}|{profile}"
        got = json.loads(json.dumps(thunk()))
        seen += 1
        if key not in pins or not _same(got, pins[key]):
            mismatched.append((key, got, pins.get(key)))
    assert seen > 0
    assert not mismatched, "\n".join(
        f"{key}: got {got}, pinned {want}"
        for key, got, want in mismatched[:20]
    ) + f"\n({len(mismatched)} of {seen} decisions differ)"


def test_grid_is_fully_pinned(pins):
    keys = {
        f"{key}|{profile}"
        for planner in ("plan", "family", "topk", "dynamic")
        for key, _thunk in _cases(planner)
        for profile in ("none", "canned")
    }
    assert keys == set(pins)

