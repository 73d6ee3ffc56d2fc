"""Windowed monitors for partially observed chains.

One monitor per expression keeps one record per atom (window function,
arity, range and confidence share), the running mean of each atom's window
evaluations and one window of the stream, as long as the largest arity.
After warm-up each event gives one verdict: every atom's mean plus/minus a
mixing-time-scaled half-width, folded through the expression tree with
interval arithmetic, an equal confidence share per atom.

The tree is folded once, when the monitor is built, into a postfix plan of
``(op, arg)`` steps.  Each event runs the plan over ``(lo, hi, point)``
float triples with the formulas of :class:`Interval`, its NaN and empty
checks included; a sum's, difference's or product's point is kept when it
is finite, a reciprocal's when the operand's point is nonzero.  Only the
clipped result becomes an ``Interval``.  Atoms with the same (share, arity,
range) share one half-width, computed once per event.  An atom's window
values come from a memo keyed by the window word and filled on first
sight, when the alphabet is declared and has at most ``_MEMO_WORDS`` words
of the atom's arity; otherwise the window function runs on every window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from .bounds import ci_pomc_pointwise, ci_pomc_uniform, split_delta
from .errors import ConfigError
from .intervals import Interval
from .speclang.ast import (Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub,
                           TransVar, fold, leaves, reject)
from .speclang.ranges import bse_range

_CI = {"pointwise": ci_pomc_pointwise, "uniform": ci_pomc_uniform}

INF = math.inf

# An atom with more words of its arity than this is not memoised.
_MEMO_WORDS = 4096

_OP_LEAF = 0
_OP_CONST = 1
_OP_ADD = 2
_OP_SUB = 3
_OP_MUL = 4
_OP_INV = 5


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


class _Memo(dict):
    """Window values by window word, each computed on first sight."""

    def __init__(self, fn: Callable):
        super().__init__()
        self._fn = fn

    def __missing__(self, word):
        value = self[word] = self._fn(word)
        return value


def _compile(expr: Expr) -> list:
    """Flatten to postfix ``(op, arg)`` steps.

    A leaf's arg is its index in leaf order, a constant's its
    ``(lo, hi, point)`` triple.
    """
    plan: list = []
    index = itertools.count()

    def leaf(_):
        plan.append((_OP_LEAF, next(index)))

    def emit(op):
        return lambda *_: plan.append((op, None))

    fold(expr, {
        Atom: leaf, SeqProb: leaf,
        Const: lambda n: plan.append((_OP_CONST, (n.value, n.value, n.value))),
        Add: emit(_OP_ADD), Sub: emit(_OP_SUB), Mul: emit(_OP_MUL), Inv: emit(_OP_INV),
    })
    return plan


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
        self._range = bse_range(expr)
        self._ci = _CI[mode]
        self._tau = tau_mix
        self._alphabet = frozenset(alphabet) if alphabet else None
        atoms = leaves(expr)
        shares = split_delta(delta, expr).shares() if atoms else []
        # distinct (share, n, low, high) half-width keys, and one
        # (window values, n, low, high, key index) record per atom, in leaf order
        keys: dict = {}
        self._atoms = []
        for leaf, share in zip(atoms, shares):
            fn, n, low, high = atom_window(leaf)
            if self._alphabet is not None and len(self._alphabet) ** n <= _MEMO_WORDS:
                fn = _Memo(fn).__getitem__
            key = keys.setdefault((share, n, low, high), len(keys))
            self._atoms.append((fn, n, low, high, key))
        self._keys = list(keys)
        self._means = [0.0] * len(self._atoms)
        self._width = max((a[1] for a in self._atoms), default=1)
        self._plan = _compile(expr)
        self._window = ()
        self._t = 0
        self._intersect = intersect_verdicts
        self._running: Optional[Tuple[float, float]] = None  # (lo, hi) so far
        self._consistent = True

    def next(self, symbol: str) -> Verdict:
        if self._alphabet is not None and symbol not in self._alphabet:
            raise ConfigError(f"symbol {symbol!r} outside the declared alphabet")
        self._t = t = self._t + 1
        self._window = window = (self._window + (symbol,))[-self._width:]
        warm = t >= self._width
        if warm:
            ci, tau = self._ci, self._tau
            eps = [ci(share, t, n, low, high, tau) for share, n, low, high in self._keys]
        means = self._means
        values = []
        for i, (value_of, n, low, high, k) in enumerate(self._atoms):
            if t < n:
                continue
            # the recurrence can round the running mean out of the range
            mean = means[i] = min(max((means[i] * (t - n) + value_of(window[-n:]))
                                      / (t - (n - 1)), low), high)
            if warm:
                lo, hi = max(mean - eps[k], low), min(mean + eps[k], high)
                if not lo <= hi:
                    Interval(lo, hi)  # raises the NaN or empty-interval error
                values.append((lo, hi, mean))
        if not warm:
            return INCONCLUSIVE

        stack: list = []
        push, pop = stack.append, stack.pop
        for op, arg in self._plan:
            if op == _OP_LEAF:
                push(values[arg])
                continue
            if op == _OP_CONST:
                lo, hi, p = arg
            elif op == _OP_INV:
                lo, hi, p = pop()
                p = None if p is None or p == 0.0 else 1.0 / p
                if lo <= 0.0 <= hi:
                    push((-INF, INF, p))
                    continue
                lo, hi = 1.0 / hi, 1.0 / lo
            else:
                blo, bhi, bp = pop()
                lo, hi, p = pop()
                if op == _OP_ADD:
                    lo, hi = lo + blo, hi + bhi
                    p = None if p is None or bp is None else p + bp
                elif op == _OP_SUB:
                    lo, hi = lo - bhi, hi - blo
                    p = None if p is None or bp is None else p - bp
                else:
                    # 0 * inf = 0 keeps a product sound when a factor is exactly zero
                    ps = (0.0 if lo == 0.0 or blo == 0.0 else lo * blo,
                          0.0 if lo == 0.0 or bhi == 0.0 else lo * bhi,
                          0.0 if hi == 0.0 or blo == 0.0 else hi * blo,
                          0.0 if hi == 0.0 or bhi == 0.0 else hi * bhi)
                    lo, hi = min(ps), max(ps)
                    p = None if p is None or bp is None else p * bp
                if p is not None and not -INF < p < INF:
                    p = None
            if not lo <= hi:
                Interval(lo, hi)  # raises the NaN or empty-interval error
            push((lo, hi, p))

        lo, hi, point = stack[0]
        lo, hi = max(lo, self._range.lo), min(hi, self._range.hi)
        if self._intersect:
            if not lo <= hi:
                Interval(lo, hi)  # raises the NaN or empty-interval error
            rlo, rhi = self._running or (lo, hi)
            self._consistent &= rlo <= hi and lo <= rhi
            if not self._consistent:
                return Verdict(interval=None, point=point, consistent=False)
            self._running = lo, hi = max(rlo, lo), min(rhi, hi)
        return Verdict(Interval(lo, hi), point)


def build_pomc_monitor(expr: Expr, delta: float, mode: str, tau_mix: float,
                       alphabet: Optional[Sequence[str]] = None,
                       intersect_verdicts: bool = False) -> CompositeMonitor:
    return CompositeMonitor(expr, delta, mode, tau_mix, alphabet, intersect_verdicts)
