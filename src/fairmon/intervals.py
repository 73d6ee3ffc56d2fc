"""Closed real intervals with extended endpoints and sound arithmetic.

Division through an interval containing zero yields the unbounded interval;
unboundedness is a value, not an error, so verdicts can always be combined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf


def _prod(a: float, b: float) -> float:
    # 0 * inf = 0 keeps products sound when one factor is exactly zero.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

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
        ps = (
            _prod(self.lo, other.lo),
            _prod(self.lo, other.hi),
            _prod(self.hi, other.lo),
            _prod(self.hi, other.hi),
        )
        return Interval(min(ps), max(ps))

    def inverse(self) -> "Interval":
        if self.lo <= 0.0 <= self.hi:
            return UNBOUNDED
        return Interval(1.0 / self.hi, 1.0 / self.lo)

    def __truediv__(self, other: "Interval") -> "Interval":
        return self * other.inverse()

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


UNBOUNDED = Interval(-INF, INF)
UNIT = Interval(0.0, 1.0)
