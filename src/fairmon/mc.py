"""Monitors for PSEs over fully observed chains.

Per relevant source state the monitor keeps visit and edge counters; when an
evaluation round needs the outcome of a transition variable it draws, without
replacement, a recorded successor from those counters (or "none of the
relevant ones") into a per-state shuffled buffer.  Variable occurrences
(each identified by its index in ``leaves(expr)``) read fixed positions of
those buffers, laid out so that factors of a product never share a visit.
Every completed round contributes one i.i.d. outcome whose mean is the value
of the expression; a Hoeffding or stitched half-width around the running
mean gives the verdict.

Expressions with division are first normalized to ``phi_a + phi_b / phi_c``
(all parts division free) and monitored by three sub-monitors, each carrying
a third of the confidence budget.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bounds import ci_mc_pointwise, ci_mc_uniform
from .errors import ConfigError, SpecValidationError
from .intervals import Interval
from .pomc import INCONCLUSIVE, Verdict
from .speclang.ast import (Add, Const, Expr, Mul, Sub, TransVar,
                           contains_division, expression_size, fold, is_pse)
from .speclang.normal_form import decompose_division, to_polynomial
from .speclang.ranges import TOP, assign_slots, expr_range

_CI = {"pointwise": ci_mc_pointwise, "uniform": ci_mc_uniform}

_OP_CONST = 0
_OP_VAR = 1
_OP_ADD = 2
_OP_SUB = 3
_OP_MUL = 4

_BLOCK = 1024  # uniforms drawn per refill of the pool


class _UniformPool:
    """Counter-based generator (Philox) with block-buffered scalar draws."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(seed))
        self._buf = self._gen.random(_BLOCK)
        self._i = 0

    def random(self) -> float:
        i = self._i
        if i >= _BLOCK:
            self._buf = self._gen.random(_BLOCK)
            i = 0
        self._i = i + 1
        return self._buf[i]


def _compile(expr: Expr, slots) -> Tuple[list, list]:
    """Flatten to postfix; variable reads go through a per-occurrence cache.

    A full postfix pass evaluates every leaf even when a sibling is still
    unavailable, so all draws a round will need are made as early as
    possible; completed reads are cached until the round is reset.
    """
    prog: list = []
    var_info: list = []  # (source, target, slot) per occurrence

    def var(node: TransVar):
        var_info.append((node.source, node.target, slots[len(var_info)][1]))
        prog.append((_OP_VAR, len(var_info) - 1))

    def emit(op):
        return lambda *_: prog.append((op, 0))

    fold(expr, {
        Const: lambda n: prog.append((_OP_CONST, n.value)), TransVar: var,
        Add: emit(_OP_ADD), Sub: emit(_OP_SUB), Mul: emit(_OP_MUL),
    })
    return prog, var_info


class MCMonitorDivFree:
    """Streaming monitor for a division-free PSE on a fully observed chain."""

    def __init__(self, expr: Expr, delta: float, mode: str, seed: int = 0,
                 alphabet: Optional[Sequence[str]] = None,
                 check_invariants: bool = False):
        if mode not in _CI:
            raise ConfigError(f"mode must be 'pointwise' or 'uniform', got {mode!r}")
        if not is_pse(expr):
            raise SpecValidationError("fully-observed monitor needs a PSE")
        if contains_division(expr):
            raise SpecValidationError("expression must be division free here")
        self._expr = expr
        layout = assign_slots(expr)
        self._layout = layout
        self._prog, self._vars = _compile(expr, layout.slots)
        self._range = expr_range(expr)
        self.sigma_sq = self._range.width ** 2
        self._delta = delta
        self._mode = mode
        self._ci = _CI[mode]
        self._rng = _UniformPool(seed)
        self._alphabet = frozenset(alphabet) if alphabet else None

        self._c = {src: 0 for src in layout.targets}
        self._cij = {(src, tgt): 0 for src, tgts in layout.targets.items() for tgt in tgts}
        self._targets = {src: list(tgts) for src, tgts in layout.targets.items()}
        self._z = {src: [] for src in layout.targets}
        self._cache: List[Optional[float]] = [None] * len(self._vars)
        self._prev: Optional[str] = None
        self._blocked: Optional[str] = None
        self.n_samples = 0
        self.mean = 0.0
        self._verdict: Verdict = INCONCLUSIVE
        self.peak_buffer = 0
        self._check = check_invariants

    @property
    def expression_size(self) -> int:
        return expression_size(self._expr)

    @property
    def value_range(self) -> Interval:
        return self._range

    def register_count(self) -> int:
        """Live registers: counters, buffer cells, caches, and scalars."""
        buf = sum(len(z) for z in self._z.values())
        return len(self._c) + len(self._cij) + buf + len(self._cache) + 5

    def _extract(self, source: str, upto: int):
        z = self._z[source]
        ci = self._c[source]
        cij = self._cij
        targets = self._targets[source]
        rnd = self._rng.random
        while len(z) < upto and ci > 0:
            u = rnd() * ci
            acc = 0.0
            pick = TOP
            for tgt in targets:
                acc += cij[(source, tgt)]
                if u < acc:
                    pick = tgt
                    break
            ci -= 1
            if pick is not TOP:
                cij[(source, pick)] -= 1
            z.append(pick)
        self._c[source] = ci
        if len(z) > self.peak_buffer:
            self.peak_buffer = len(z)

    def _eval(self) -> Optional[float]:
        stack: list = []
        push = stack.append
        pop = stack.pop
        cache = self._cache
        for op, arg in self._prog:
            if op == _OP_VAR:
                v = cache[arg]
                if v is None:
                    source, target, slot = self._vars[arg]
                    z = self._z[source]
                    if len(z) < slot:
                        self._extract(source, slot)
                    if len(z) >= slot:
                        v = 1.0 if z[slot - 1] == target else 0.0
                        cache[arg] = v
                    else:
                        self._blocked = source
                push(v)
            elif op == _OP_CONST:
                push(arg)
            else:
                b = pop()
                a = pop()
                if a is None or b is None:
                    push(None)
                elif op == _OP_ADD:
                    push(a + b)
                elif op == _OP_SUB:
                    push(a - b)
                else:
                    push(a * b)
        return stack[0]

    def _reset_round(self):
        for z in self._z.values():
            z.clear()
        cache = self._cache
        for i in range(len(cache)):
            cache[i] = None
        self._blocked = None

    def next(self, symbol: str) -> Verdict:
        if self._alphabet is not None and symbol not in self._alphabet:
            raise ConfigError(f"symbol {symbol!r} outside the state alphabet")
        prev = self._prev
        self._prev = symbol
        if prev is None:
            return self._verdict
        c = self._c
        if prev in c:
            c[prev] += 1
            key = (prev, symbol)
            if key in self._cij:
                self._cij[key] += 1
            if self._blocked == prev:
                self._blocked = None
        if self._blocked is None:
            w = self._eval()
            if w is not None:
                n = self.n_samples + 1
                self.n_samples = n
                lo, hi = self._range.lo, self._range.hi
                # the recurrence can round the running mean out of the range
                mu = min(max((self.mean * (n - 1) + w) / n, lo), hi)
                self.mean = mu
                eps = self._ci(n, self._delta, self.sigma_sq)
                iv = Interval(max(mu - eps, lo), min(mu + eps, hi))
                self._verdict = Verdict(interval=iv, point=mu)
                self._reset_round()
        if self._check:
            self._assert_invariants()
        return self._verdict

    def feed(self, symbols) -> Verdict:
        v = self._verdict
        for s in symbols:
            v = self.next(s)
        return v

    def _assert_invariants(self):
        for src in self._c:
            used = sum(self._cij[(src, t)] for t in self._targets[src])
            assert used <= self._c[src], f"edge counters exceed visits at {src!r}"
        for src, z in self._z.items():
            assert len(z) <= self._layout.demand[src], f"buffer overgrew at {src!r}"


class DivisionMonitor:
    """Three division-free sub-monitors realizing ``phi_a + phi_b / phi_c``."""

    def __init__(self, parts, delta: float, mode: str, seed: int = 0,
                 alphabet: Optional[Sequence[str]] = None,
                 check_invariants: bool = False):
        share = delta / 3.0
        self._subs = [
            MCMonitorDivFree(part, share, mode, seed=seed * 3 + k,
                             alphabet=alphabet, check_invariants=check_invariants)
            for k, part in enumerate(parts)
        ]
        ra, rb, rc = (m.value_range for m in self._subs)
        self._range = ra + rb / rc
        self._verdict: Verdict = INCONCLUSIVE

    @property
    def value_range(self) -> Interval:
        return self._range

    @property
    def n_samples(self) -> int:
        return min(m.n_samples for m in self._subs)

    def register_count(self) -> int:
        return sum(m.register_count() for m in self._subs)

    @property
    def peak_buffer(self) -> int:
        return max(m.peak_buffer for m in self._subs)

    def next(self, symbol: str) -> Verdict:
        va, vb, vc = [m.next(symbol) for m in self._subs]
        if any(v.is_inconclusive for v in (va, vb, vc)):
            return INCONCLUSIVE
        interval = (va.interval + vb.interval / vc.interval).intersect(self._range)
        point = None
        if all(v.point is not None for v in (va, vb, vc)) and vc.point != 0.0:
            point = va.point + vb.point / vc.point
        self._verdict = Verdict(interval=interval, point=point)
        return self._verdict

    def feed(self, symbols) -> Verdict:
        v = self._verdict
        for s in symbols:
            v = self.next(s)
        return v


def build_mc_monitor(expr: Expr, delta: float, mode: str, seed: int = 0,
                     alphabet: Optional[Sequence[str]] = None,
                     check_invariants: bool = False):
    """Monitor for an arbitrary PSE: direct when division free, else decomposed."""
    if not is_pse(expr):
        raise SpecValidationError("fully-observed monitoring needs a PSE "
                                  "(constants and transition variables only)")
    if not contains_division(expr):
        return MCMonitorDivFree(expr, delta, mode, seed=seed, alphabet=alphabet,
                                check_invariants=check_invariants)
    dd = decompose_division(to_polynomial(expr))
    if dd.is_trivial:
        return MCMonitorDivFree(dd.phi_a, delta, mode, seed=seed, alphabet=alphabet,
                                check_invariants=check_invariants)
    return DivisionMonitor((dd.phi_a, dd.phi_b, dd.phi_c), delta, mode, seed=seed,
                           alphabet=alphabet, check_invariants=check_invariants)
