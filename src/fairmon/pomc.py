"""Windowed monitors for partially observed chains.

One atomic monitor per window function keeps a length-n ring buffer and the
running mean of the window evaluations; after warm-up it emits the mean
plus/minus a mixing-time-scaled half-width.  A composite monitor folds the
atomic verdicts through the expression tree with interval arithmetic,
spending an equal confidence share per atom.
"""

from __future__ import annotations

import math
import operator
from collections import deque
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


class AtomicMonitor:
    """Sliding window, running mean, and concentration half-width for one atom."""

    def __init__(self, fn: Callable, arity: int, low: float, high: float,
                 delta: float, mode: str, tau_mix: float,
                 alphabet: Optional[Sequence[str]] = None):
        if mode not in _CI:
            raise ConfigError(f"mode must be 'pointwise' or 'uniform', got {mode!r}")
        self._fn = fn
        self._n = arity
        self._low = low
        self._high = high
        self._delta = delta
        self._mode = mode
        self._ci = _CI[mode]
        self._tau = tau_mix
        self._alphabet = frozenset(alphabet) if alphabet else None
        self._t = 0
        self._mean = 0.0
        self._window = deque(maxlen=arity)

    def next(self, symbol: str) -> Verdict:
        if self._alphabet is not None and symbol not in self._alphabet:
            raise ConfigError(f"symbol {symbol!r} outside the declared alphabet")
        self._t += 1
        t, n = self._t, self._n
        self._window.append(symbol)
        if t < n:
            return INCONCLUSIVE
        x = self._fn(tuple(self._window))
        low, high = self._low, self._high
        # the recurrence can round the running mean out of the range
        mean = self._mean = min(max((self._mean * (t - n) + x) / (t - (n - 1)), low), high)
        eps = self._ci(self._delta, t, n, low, high, self._tau)
        return Verdict(interval=Interval(max(mean - eps, low), min(mean + eps, high)), point=mean)


_WINDOWS = {
    Atom: lambda n: (n.ref.evaluate, n.ref.arity, n.ref.low, n.ref.high),
    SeqProb: lambda n: (n.indicator, n.arity, 0.0, 1.0),
    TransVar: reject(ConfigError, "transition variables need the fully-observed engine"),
}


def atom_window(leaf: Expr) -> Tuple[Callable, int, float, float]:
    """Window function, arity and value range of an atomic leaf."""
    return fold(leaf, _WINDOWS)


class CompositeMonitor:
    """Expression-tree monitor folding atomic verdicts with interval arithmetic.

    Any warmed-up-not-yet child makes the composite inconclusive; division
    through an interval containing zero propagates as an unbounded verdict.
    The folded interval is clipped to the a-priori range of the expression,
    which is sound because the true value certainly lies there.  Running
    intersection of the verdicts is only sound for time-uniform intervals; a
    verdict disjoint from it makes this and every later verdict inconsistent.
    """

    def __init__(self, expr: Expr, delta: float, mode: str, tau_mix: float,
                 alphabet: Optional[Sequence[str]] = None,
                 intersect_verdicts: bool = False):
        if intersect_verdicts and mode != "uniform":
            raise ConfigError("intersecting verdicts over time needs uniform mode")
        self._expr = expr
        self._range = bse_range(expr)
        atoms = leaves(expr)
        shares = split_delta(delta, expr).shares() if atoms else []
        self._atoms = [AtomicMonitor(*atom_window(leaf), share, mode, tau_mix, alphabet)
                       for leaf, share in zip(atoms, shares)]
        self._verdicts = iter(())

        def atom(_) -> Tuple[Interval, Optional[float]]:
            v = next(self._verdicts)
            return v.interval, v.point

        # (interval, point) pairs; atoms read this event's verdicts in leaf order
        self._algebra = {
            Atom: atom, SeqProb: atom,
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
        verdicts = [m.next(symbol) for m in self._atoms]
        if any(v.is_inconclusive for v in verdicts):
            return INCONCLUSIVE
        self._verdicts = iter(verdicts)
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
    if a is None or b is None:
        return None
    v = op(a, b)
    return v if math.isfinite(v) else None


def build_pomc_monitor(expr: Expr, delta: float, mode: str, tau_mix: float,
                       alphabet: Optional[Sequence[str]] = None,
                       intersect_verdicts: bool = False) -> CompositeMonitor:
    return CompositeMonitor(expr, delta, mode, tau_mix, alphabet, intersect_verdicts)
