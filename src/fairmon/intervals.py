"""Closed real intervals with extended endpoints and sound arithmetic.

Division through an interval containing zero yields the unbounded interval;
unboundedness is a value, not an error, so verdicts can always be combined.
"""

from __future__ import annotations

import math
from typing import Tuple

INF = math.inf


def product(alo: float, ahi: float, blo: float, bhi: float) -> Tuple[float, float]:
    """The least and the greatest of the four corner products of [alo, ahi]
    and [blo, bhi].  0 * inf = 0 keeps a product sound when one factor is
    exactly zero."""
    ps = (0.0 if alo == 0.0 or blo == 0.0 else alo * blo,
          0.0 if alo == 0.0 or bhi == 0.0 else alo * bhi,
          0.0 if ahi == 0.0 or blo == 0.0 else ahi * blo,
          0.0 if ahi == 0.0 or bhi == 0.0 else ahi * bhi)
    return min(ps), max(ps)


def reciprocal(lo: float, hi: float) -> Tuple[float, float]:
    """The endpoints of 1 / [lo, hi]: unbounded when the interval contains 0."""
    if lo <= 0.0 <= hi:
        return -INF, INF
    return 1.0 / hi, 1.0 / lo


class Interval:
    """A closed interval [lo, hi].  A value: nothing assigns to its fields
    after ``__init__``, so instances are shared and hashed freely."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if not lo <= hi:
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self):
        return hash((self.lo, self.hi))

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        """The common part; raises ValueError when the two are disjoint."""
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*product(self.lo, self.hi, other.lo, other.hi))

    def inverse(self) -> "Interval":
        return Interval(*reciprocal(self.lo, self.hi))

    def __truediv__(self, other: "Interval") -> "Interval":
        return self * other.inverse()

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


UNBOUNDED = Interval(-INF, INF)
"""The whole real line: one value shared by every user, which nobody mutates."""
UNIT = Interval(0.0, 1.0)
"""[0, 1]: one value shared by every user, which nobody mutates."""
