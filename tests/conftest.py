"""Shared fixtures and hypothesis strategies for the test suite.

Dataset construction lives in :mod:`repro.datasets.fixtures` (shared
with the benchmark harness); this file only binds it to pytest and
declares the hypothesis strategies.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from repro.datasets.fixtures import make_points  # noqa: F401  (re-export)
from repro.datasets.synthetic import uniform

# ----------------------------------------------------------------------
# hypothesis profiles
# ----------------------------------------------------------------------
settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "heavy",
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: The deep differential-fuzz profile CI runs over tests/fuzz
#: (``--hypothesis-profile=fuzz-deep``).
settings.register_profile(
    "fuzz-deep",
    max_examples=3000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: Integer-lattice coordinates: small domain on purpose, to generate the
#: degenerate configurations (duplicates, collinear and cocircular
#: points) that stress the strict-containment conventions.
lattice_coord = st.integers(min_value=0, max_value=64).map(float)

#: Continuous coordinates in the paper's domain.
continuous_coord = st.floats(
    min_value=0.0, max_value=10000.0, allow_nan=False, allow_infinity=False
)


def lattice_pointset(min_size: int = 0, max_size: int = 40):
    """Strategy: list of lattice coordinate pairs (duplicates allowed)."""
    return st.lists(
        st.tuples(lattice_coord, lattice_coord),
        min_size=min_size,
        max_size=max_size,
    )


def continuous_pointset(min_size: int = 0, max_size: int = 60):
    """Strategy: list of continuous coordinate pairs."""
    return st.lists(
        st.tuples(continuous_coord, continuous_coord),
        min_size=min_size,
        max_size=max_size,
    )


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="session", autouse=True)
def _hermetic_calibration(tmp_path_factory):
    """Point the calibration store at a session-private directory.

    Planned runs record observations and the planner loads any fitted
    profile from ``REPRO_CALIBRATION_DIR`` — left unset, the suite
    would write into (and, worse, *read* a previously fitted profile
    from) ``~/.cache/repro/calibration``, making plan-selection tests
    depend on the machine's calibration history."""
    import os

    path = str(tmp_path_factory.mktemp("calibration"))
    old = os.environ.get("REPRO_CALIBRATION_DIR")
    os.environ["REPRO_CALIBRATION_DIR"] = path
    yield
    if old is None:
        os.environ.pop("REPRO_CALIBRATION_DIR", None)
    else:
        os.environ["REPRO_CALIBRATION_DIR"] = old


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG per test."""
    return random.Random(1234)


@pytest.fixture
def uniform_points() -> list:
    """300 uniform points over the paper's domain (seed 1234)."""
    return uniform(300, seed=1234)
