"""Monitors for PSEs over fully observed chains.

Per relevant source state the monitor keeps visit and edge counters; when an
evaluation round needs the outcome of a transition variable it draws, without
replacement, a recorded successor from those counters (or "none of the
relevant ones") into a per-state shuffled buffer.  Variable occurrences
(each identified by its index in ``leaves(expr)``) read fixed positions of
those buffers, laid out so that factors of a product never share a visit.
Every completed round contributes one i.i.d. outcome whose mean is the value
of the expression; a Hoeffding or stitched half-width around the running
mean gives the verdict.  A round is evaluated by a tree of closures that
``fold`` builds once: a variable occurrence reads its slot, a constant
returns its value, and an operator calls both children, left then right.

States are integer codes, fixed when the monitor is built: the relevant
source states are ``0..S-1``, the other relevant targets follow, and every
other symbol shares one last code.  With a declared alphabet only its
symbols have codes, and any other raises ``EventError`` before any state
moves.  An event costs one dict lookup for its code; after it the monitor
works on lists: visit counters per source, edge counters per source in
sorted target order, a row per source from a code to a target index (-1 for
a target that is not relevant), and buffers of target indices (-1 for none
of the relevant ones).

Expressions with division are first normalized to ``phi_a + phi_b / phi_c``
(all parts division free).  A part with transition variables gets a
sub-monitor carrying a third of the confidence budget; a constant part is its
value.  The combined verdict is rebuilt, with :func:`~fairmon.intervals.product`
and :func:`~fairmon.intervals.reciprocal` on the parts' endpoints, only on an
event on which a sub-monitor completed a round.
"""

from __future__ import annotations

import math
import operator
from typing import List, Optional, Sequence

import numpy as np

from .bounds import check_delta, mc_halfwidth, squared_width
from .errors import ConfigError, EventError, SpecValidationError
from .intervals import Interval, product, reciprocal
from .pomc import INCONCLUSIVE, Verdict
from .speclang.ast import (Add, Const, Expr, Mul, Sub, TransVar, contains_division,
                           fold, is_pse)
from .speclang.normal_form import decompose_division, to_polynomial
from .speclang.ranges import assign_slots, expr_range

_MODES = ("pointwise", "uniform")

_BLOCK = 1024  # uniforms drawn per refill of the pool


class _UniformPool:
    """Counter-based generator (Philox) with block-buffered scalar draws."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(seed))
        # Python floats: the same doubles, without numpy scalar arithmetic
        self._buf = self._gen.random(_BLOCK).tolist()
        self._i = 0

    def random(self) -> float:
        i = self._i
        if i >= _BLOCK:
            self._buf = self._gen.random(_BLOCK).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]


def _binary(op):
    """Handler for an operator: both children, left then right, then ``op``.

    No child is skipped when its sibling is unavailable: every source draws
    from one Philox pool, so all draws a round will need are made in the
    order of a full post-order pass, as early as possible.
    """

    def handler(_, left, right):
        def evaluate():
            a = left()
            b = right()
            return None if a is None or b is None else op(a, b)
        return evaluate

    return handler


class _Monitor:
    """``next`` and ``feed`` over ``_step``, which keeps ``_verdict`` current."""

    def __init__(self, value_range: Interval):
        self.value_range = value_range
        self._verdict: Verdict = INCONCLUSIVE

    def next(self, symbol: str) -> Verdict:
        self._step(symbol)
        return self._verdict

    def feed(self, symbols) -> Verdict:
        v = self._verdict
        for s in symbols:
            v = self.next(s)
        return v


class MCMonitorDivFree(_Monitor):
    """Streaming monitor for a division-free PSE on a fully observed chain."""

    def __init__(self, expr: Expr, delta: float, mode: str, seed: int = 0,
                 alphabet: Optional[Sequence[str]] = None):
        if mode not in _MODES:
            raise ConfigError(f"mode must be 'pointwise' or 'uniform', got {mode!r}")
        check_delta(delta)
        if not is_pse(expr):
            raise SpecValidationError("fully-observed monitor needs a PSE")
        if contains_division(expr):
            raise SpecValidationError("expression must be division free here")
        layout = assign_slots(expr)
        self._layout = layout
        self._sources = list(layout.targets)  # state name by source code
        codes = {src: k for k, src in enumerate(self._sources)}
        for tgts in layout.targets.values():
            for tgt in tgts:
                codes.setdefault(tgt, len(codes))
        other = len(codes)  # every symbol that is not relevant
        self._rows = []
        for tgts in layout.targets.values():
            row = [-1] * (other + 1)
            for j, tgt in enumerate(tgts):
                row[codes[tgt]] = j
            self._rows.append(row)
        self._codes = {s: codes.get(s, other) for s in alphabet} if alphabet else codes
        self._miss = None if alphabet else other  # the code of a symbol without one
        super().__init__(expr_range(expr))
        self._lo, self._hi = self.value_range.lo, self.value_range.hi
        self.sigma_sq = squared_width(self._lo, self._hi)
        self._delta = delta
        # a range whose squared width is NaN, such as [inf, inf], fails here
        self._halfwidth = mc_halfwidth(delta, self.sigma_sq, mode == "uniform")
        self._rng = _UniformPool(seed)

        self._n_sources = len(self._sources)
        self._c = [0] * self._n_sources
        self._cij = [[0] * len(tgts) for tgts in layout.targets.values()]
        self._z: List[list] = [[] for _ in self._sources]
        self._cache: List[Optional[float]] = []  # per occurrence, until the round ends
        self._eval = fold(expr, {
            Const: lambda node: lambda: node.value, TransVar: self._reader,
            Add: _binary(operator.add), Sub: _binary(operator.sub), Mul: _binary(operator.mul),
        })
        self._prev = -1  # code of the previous symbol; -1 before the first
        self._blocked: Optional[int] = None  # source code the round waits on
        self.n_samples = 0
        self.mean = 0.0
        self.peak_buffer = 0

    def register_count(self) -> int:
        """Live registers: counters, buffer cells, caches, and scalars."""
        edges = sum(len(row) for row in self._cij)
        buf = sum(len(z) for z in self._z)
        return len(self._c) + edges + buf + len(self._cache) + 5

    def _extract(self, source: int, upto: int):
        z = self._z[source]
        ci = self._c[source]
        counts = self._cij[source]
        rnd = self._rng.random
        while len(z) < upto and ci > 0:
            u = rnd() * ci
            acc = 0.0
            pick = -1
            for j, n in enumerate(counts):
                acc += n
                if u < acc:
                    pick = j
                    counts[j] = n - 1
                    break
            ci -= 1
            z.append(pick)
        self._c[source] = ci
        if len(z) > self.peak_buffer:
            self.peak_buffer = len(z)

    def _reader(self, node: TransVar):
        """Reader of the next occurrence (in ``leaves`` order): its cached
        outcome, else its slot's draw, else None with the source blocked."""
        cache = self._cache
        k = len(cache)
        cache.append(None)
        source = self._sources.index(node.source)
        target = self._layout.targets[node.source].index(node.target)
        slot = self._layout.slots[k][1]
        z = self._z[source]
        extract = self._extract

        def read() -> Optional[float]:
            v = cache[k]
            if v is None:
                if len(z) < slot:
                    extract(source, slot)
                if len(z) >= slot:
                    v = cache[k] = 1.0 if z[slot - 1] == target else 0.0
                else:
                    self._blocked = source
            return v

        return read

    def _round(self, w: float) -> None:
        """Fold a completed round's outcome in and rebuild the verdict."""
        n = self.n_samples + 1
        self.n_samples = n
        lo, hi = self._lo, self._hi
        # the recurrence can round the running mean out of the range
        mu = min(max((self.mean * (n - 1) + w) / n, lo), hi)
        self.mean = mu
        eps = self._halfwidth(n)
        iv = Interval(max(mu - eps, lo), min(mu + eps, hi))
        self._verdict = Verdict(interval=iv, point=mu)
        for z in self._z:
            z.clear()
        cache = self._cache
        cache[:] = [None] * len(cache)
        self._blocked = None

    def _step(self, symbol: str) -> bool:
        """One event; True when a round completed."""
        code = self._codes.get(symbol, self._miss)
        if code is None:
            raise EventError(symbol)
        prev = self._prev
        self._prev = code
        if prev < 0:
            return False
        if prev < self._n_sources:
            self._c[prev] += 1
            j = self._rows[prev][code]
            if j >= 0:
                self._cij[prev][j] += 1
            if self._blocked == prev:
                self._blocked = None
        if self._blocked is None:
            w = self._eval()
            if w is not None:
                self._round(w)
                return True
        return False


class DivisionMonitor(_Monitor):
    """``phi_a + phi_b / phi_c``: a division-free sub-monitor for each part
    with transition variables, and each constant part as its value."""

    def __init__(self, parts, delta: float, mode: str, seed: int = 0,
                 alphabet: Optional[Sequence[str]] = None):
        check_delta(delta)
        # A constant c's sub-monitor would say [c, c] from its first round on,
        # at event 2, before any other part can complete a round.  The other
        # parts keep their seeds and a third of delta each; the constant's
        # third stays unspent, because every half-width, and so every bit,
        # depends on it.
        self._parts = [_constant(part) if isinstance(part, Const)
                       else MCMonitorDivFree(part, delta / 3.0, mode, seed=seed * 3 + k,
                                             alphabet=alphabet)
                       for k, part in enumerate(parts)]
        self._subs = [p for p in self._parts if isinstance(p, MCMonitorDivFree)]
        if not self._subs:
            raise ConfigError("a division monitor needs a part with transition variables")
        ra, rb, rc = (expr_range(part) for part in parts)
        super().__init__(ra + rb / rc)

    @property
    def n_samples(self) -> int:
        return min(m.n_samples for m in self._subs)

    def register_count(self) -> int:
        return sum(m.register_count() for m in self._subs)

    @property
    def peak_buffer(self) -> int:
        return max(m.peak_buffer for m in self._subs)

    def _combine(self) -> Verdict:
        """``va + vb / vc`` clipped to the range, on the parts' endpoints."""
        va, vb, vc = (p if isinstance(p, Verdict) else p._verdict for p in self._parts)
        if va.interval is None or vb.interval is None or vc.interval is None:
            return INCONCLUSIVE
        ilo, ihi = reciprocal(vc.interval.lo, vc.interval.hi)
        lo, hi = product(vb.interval.lo, vb.interval.hi, ilo, ihi)
        lo, hi = va.interval.lo + lo, va.interval.hi + hi
        point = va.point + vb.point / vc.point if vc.point != 0.0 else None
        # max and min keep a NaN first argument, so Interval sees it and raises
        r = self.value_range
        return Verdict(interval=Interval(max(lo, r.lo), min(hi, r.hi)), point=point)

    def _step(self, symbol: str) -> None:
        # a list, not a generator: every part sees every event; the first
        # rejects a symbol outside the alphabet before any part moves
        if any([m._step(symbol) for m in self._subs]):
            self._verdict = self._combine()


def _constant(part: Const) -> Verdict:
    """A constant part's verdict: its value, which must be finite.  The
    division monitor reads it on every combine; a value nobody mutates."""
    if not math.isfinite(part.value):
        raise ConfigError(f"constant part {part.value!r} of a division is not finite")
    return Verdict(interval=Interval(part.value, part.value), point=part.value)


def build_mc_monitor(expr: Expr, delta: float, mode: str, seed: int = 0,
                     alphabet: Optional[Sequence[str]] = None):
    """Monitor for an arbitrary PSE: direct when division free, else decomposed."""
    check_delta(delta)
    if not is_pse(expr):
        raise SpecValidationError("fully-observed monitoring needs a PSE "
                                  "(constants and transition variables only)")
    if not contains_division(expr):
        return MCMonitorDivFree(expr, delta, mode, seed=seed, alphabet=alphabet)
    dd = decompose_division(to_polynomial(expr))
    if dd.is_trivial:
        return MCMonitorDivFree(dd.phi_a, delta, mode, seed=seed, alphabet=alphabet)
    return DivisionMonitor((dd.phi_a, dd.phi_b, dd.phi_c), delta, mode, seed=seed,
                           alphabet=alphabet)
