"""Windowed monitors for partially observed chains.

One monitor per expression keeps one record per atom (window function,
arity, range, confidence share and running mean of the window evaluations)
and one window of the stream, as long as the largest arity.  After warm-up
each event gives one verdict: every atom's mean plus/minus a mixing-time-
scaled half-width, folded through the expression tree with interval
arithmetic, an equal confidence share per atom.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .bounds import ci_pomc_pointwise, ci_pomc_uniform, split_delta
from .errors import ConfigError
from .intervals import Interval
from .speclang.ast import (Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub,
                           TransVar, fold, leaves, reject)
from .speclang.ranges import bse_range

_CI = {"pointwise": ci_pomc_pointwise, "uniform": ci_pomc_uniform}


@dataclass(frozen=True)
class Verdict:
    """Monitor output: an interval with a point estimate, or no claim yet."""

    interval: Optional[Interval]
    point: Optional[float] = None
    consistent: bool = True

    @property
    def kind(self) -> str:
        if not self.consistent:
            return "inconsistent"
        if self.interval is None:
            return "inconclusive"
        if not self.interval.is_bounded:
            return "unbounded"
        return "ok"

    @property
    def is_inconclusive(self) -> bool:
        return self.interval is None and self.consistent


INCONCLUSIVE = Verdict(interval=None, point=None)


_WINDOWS = {
    Atom: lambda n: (n.ref.evaluate, n.ref.arity, n.ref.low, n.ref.high),
    SeqProb: lambda n: (n.indicator, n.arity, 0.0, 1.0),
    TransVar: reject(ConfigError, "transition variables need the fully-observed engine"),
}


def atom_window(leaf: Expr) -> Tuple[Callable, int, float, float]:
    """Window function, arity and value range of an atomic leaf."""
    return fold(leaf, _WINDOWS)


class CompositeMonitor:
    """Expression-tree monitor over one window of the stream.

    Inconclusive until the window holds the largest arity.  Division through
    an interval containing zero gives an unbounded verdict.  The folded
    interval is clipped to the expression's a-priori range, where the true
    value certainly lies.  Running intersection is only sound for uniform
    intervals; a verdict disjoint from it makes every later one inconsistent.
    """

    def __init__(self, expr: Expr, delta: float, mode: str, tau_mix: float,
                 alphabet: Optional[Sequence[str]] = None,
                 intersect_verdicts: bool = False):
        if mode not in _CI:
            raise ConfigError(f"mode must be 'pointwise' or 'uniform', got {mode!r}")
        if not tau_mix >= 1.0:
            raise ConfigError(f"mixing-time bound must be >= 1, got {tau_mix}")
        if intersect_verdicts and mode != "uniform":
            raise ConfigError("intersecting verdicts over time needs uniform mode")
        self._expr = expr
        self._range = bse_range(expr)
        self._ci = _CI[mode]
        self._tau = tau_mix
        self._alphabet = frozenset(alphabet) if alphabet else None
        atoms = leaves(expr)
        shares = split_delta(delta, expr).shares() if atoms else []
        # one [fn, n, low, high, share, running mean] record per atom, in leaf order
        self._atoms = [[*atom_window(leaf), share, 0.0] for leaf, share in zip(atoms, shares)]
        self._width = max((a[1] for a in self._atoms), default=1)
        self._window = ()
        self._t = 0
        leaf = lambda _: next(self._values)
        # (interval, point) pairs; atoms read this event's values in leaf order
        self._algebra = {
            Atom: leaf, SeqProb: leaf,
            Const: lambda n: (Interval.point(n.value), n.value),
            Add: lambda _, a, b: (a[0] + b[0], _pt(a[1], b[1], operator.add)),
            Sub: lambda _, a, b: (a[0] - b[0], _pt(a[1], b[1], operator.sub)),
            Mul: lambda _, a, b: (a[0] * b[0], _pt(a[1], b[1], operator.mul)),
            Inv: lambda _, c: (c[0].inverse(),
                               None if c[1] is None or c[1] == 0.0 else 1.0 / c[1]),
        }
        self._intersect = intersect_verdicts
        self._running: Optional[Interval] = None
        self._consistent = True

    def next(self, symbol: str) -> Verdict:
        if self._alphabet is not None and symbol not in self._alphabet:
            raise ConfigError(f"symbol {symbol!r} outside the declared alphabet")
        self._t = t = self._t + 1
        self._window = window = (self._window + (symbol,))[-self._width:]
        warm = t >= self._width
        values = []
        for a in self._atoms:
            fn, n, low, high, share, mean = a
            if t < n:
                continue
            # the recurrence can round the running mean out of the range
            mean = a[5] = min(max((mean * (t - n) + fn(window[-n:])) / (t - (n - 1)), low), high)
            if warm:
                eps = self._ci(share, t, n, low, high, self._tau)
                values.append((Interval(max(mean - eps, low), min(mean + eps, high)), mean))
        if not warm:
            return INCONCLUSIVE
        self._values = iter(values)
        interval, point = fold(self._expr, self._algebra)
        clipped = interval.intersect(self._range)
        if self._intersect:
            running = self._running or clipped
            self._consistent &= running.lo <= clipped.hi and clipped.lo <= running.hi
            if not self._consistent:
                return Verdict(interval=None, point=point, consistent=False)
            clipped = self._running = running.intersect(clipped)
        return Verdict(interval=clipped, point=point)


def _pt(a: Optional[float], b: Optional[float], op) -> Optional[float]:
    v = None if a is None or b is None else op(a, b)
    return v if v is not None and math.isfinite(v) else None


def build_pomc_monitor(expr: Expr, delta: float, mode: str, tau_mix: float,
                       alphabet: Optional[Sequence[str]] = None,
                       intersect_verdicts: bool = False) -> CompositeMonitor:
    return CompositeMonitor(expr, delta, mode, tau_mix, alphabet, intersect_verdicts)
