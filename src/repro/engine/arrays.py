"""Columnar pointset representation for the vectorized engine.

A :class:`PointArray` stores one pointset as three aligned numpy arrays
(``x``, ``y``, ``oid``) — the structure-of-arrays layout every batch
kernel in :mod:`repro.engine.kernels` operates on.  Conversion to and
from the object representation (:class:`~repro.geometry.point.Point`
lists) happens only at the engine boundary, so the hot path never touches
Python objects.  The boundary also rejects NaN and infinite coordinates
(:class:`NonFiniteCoordinateError`): distances, KD-trees and the ring
predicate are undefined on them.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry.point import Point


class NonFiniteCoordinateError(ValueError):
    """A pointset coordinate is NaN or infinite; the message names the
    first offending row."""


def _owned(data, dtype) -> np.ndarray:
    """A contiguous array of ``dtype`` that this module exclusively owns.

    Copies whenever coercion would hand back the caller's array (or a
    view into one): the columns are frozen read-only below, which must
    never leak into caller-owned storage, and caller mutations must
    never leak in.
    """
    arr = np.ascontiguousarray(data, dtype=dtype)
    if arr is data or arr.base is not None:
        arr = arr.copy()
    return arr


class PointArray:
    """An immutable columnar pointset.

    Parameters
    ----------
    x, y:
        Coordinate arrays (coerced to contiguous ``float64``).
    oid:
        Object-identifier array (coerced to ``int64``); generated
        sequentially from ``start_oid`` when omitted.

    Raises :class:`NonFiniteCoordinateError` on a NaN or infinite
    coordinate, as do :meth:`from_points` and :meth:`from_coords`.
    """

    __slots__ = ("x", "y", "oid")

    def __init__(
        self,
        x: np.ndarray | Sequence[float],
        y: np.ndarray | Sequence[float],
        oid: np.ndarray | Sequence[int] | None = None,
        start_oid: int = 0,
    ):
        x_arr = _owned(x, np.float64)
        y_arr = _owned(y, np.float64)
        if x_arr.ndim != 1 or y_arr.ndim != 1:
            raise ValueError("coordinate arrays must be one-dimensional")
        if x_arr.shape != y_arr.shape:
            raise ValueError(
                f"coordinate arrays disagree: {x_arr.shape} vs {y_arr.shape}"
            )
        finite = np.isfinite(x_arr) & np.isfinite(y_arr)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteCoordinateError(
                f"non-finite coordinate at index {i}:"
                f" ({float(x_arr[i])}, {float(y_arr[i])})"
            )
        if oid is None:
            oid_arr = np.arange(start_oid, start_oid + len(x_arr), dtype=np.int64)
        else:
            oid_arr = _owned(oid, np.int64)
            if oid_arr.shape != x_arr.shape:
                raise ValueError(
                    f"oid array disagrees with coordinates: "
                    f"{oid_arr.shape} vs {x_arr.shape}"
                )
        object.__setattr__(self, "x", x_arr)
        object.__setattr__(self, "y", y_arr)
        object.__setattr__(self, "oid", oid_arr)
        for arr in (x_arr, y_arr, oid_arr):
            arr.setflags(write=False)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PointArray is immutable")

    # ------------------------------------------------------------------
    # constructors / converters
    # ------------------------------------------------------------------
    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "PointArray":
        """Build from a sequence of :class:`Point` objects."""
        pts = list(points)
        if not pts:
            return cls.empty()
        x = np.fromiter((p.x for p in pts), dtype=np.float64, count=len(pts))
        y = np.fromiter((p.y for p in pts), dtype=np.float64, count=len(pts))
        oid = np.fromiter((p.oid for p in pts), dtype=np.int64, count=len(pts))
        return cls(x, y, oid)

    @classmethod
    def from_coords(
        cls, coords: np.ndarray | Sequence[Sequence[float]], start_oid: int = 0
    ) -> "PointArray":
        """Build from an ``(n, 2)`` coordinate array with sequential oids."""
        arr = np.asarray(coords, dtype=np.float64)
        if arr.size == 0:
            return cls.empty()
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) coordinate array, got {arr.shape}")
        return cls(arr[:, 0], arr[:, 1], start_oid=start_oid)

    @classmethod
    def empty(cls) -> "PointArray":
        """The empty pointset."""
        return cls(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))

    def to_points(self) -> list[Point]:
        """Materialise as a list of :class:`Point` objects."""
        return [
            Point(float(x), float(y), int(o))
            for x, y, o in zip(self.x, self.y, self.oid)
        ]

    def coords(self) -> np.ndarray:
        """The ``(n, 2)`` coordinate matrix (a fresh writable array)."""
        return np.column_stack((self.x, self.y))

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.x)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.to_points())

    def __getitem__(self, i: int) -> Point:
        return Point(float(self.x[i]), float(self.y[i]), int(self.oid[i]))

    def __repr__(self) -> str:
        return f"PointArray(n={len(self)})"
