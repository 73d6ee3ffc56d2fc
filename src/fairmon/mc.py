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
(all parts division free).  Each part with transition variables runs rounds
of its own, with a third of the confidence budget and a Philox stream of
its own; a constant part is its value.  A division-free expression is one
part with the whole budget.

When the monitor is built it writes one per-event step for all its parts as
straight-line Python, compiled once and bound as the monitor's ``next``, and
inside a loop over the lines of a stream as its ``run``, as
:mod:`fairmon.pomc` does.  States are integer codes in one code space that
every part shares: the source states of the parts come first, the other
relevant targets follow, and every other symbol shares one last code.  An
event costs one dict lookup for its code; with a declared alphabet a symbol
outside it raises ``EventError`` there, before any state moves.  The
counters are lists indexed by a number per (part, source): visits, edges in
sorted target order, a row from a code to a target index (-1 for a target
that is not relevant), and buffers of target indices (-1 for none of the
relevant ones).  Then each part's round runs inline over its occurrences in
``leaves`` order, none skipped when another is unavailable: all sources of a
part draw from one Philox pool, so every draw a round needs is made in the
order of a full post-order pass, as early as possible.  An occurrence keeps
its outcome until the round ends and calls ``_extract`` only when its buffer
is short and its pool holds a visit, and a round waits on the last source
that left one short.  A completed round updates the running mean and sets
the part's ``fresh`` flag.  These are the lines every event runs.

The verdict lines rebuild each fresh part's interval, the half-width from
:func:`~fairmon.bounds.mc_halfwidth` and the clip to the part's range, and
clear its flag; when some part was fresh and every part has a round,
``a + b / c`` is folded with the reciprocal, corner-product, sum and clip
lines of :mod:`fairmon.codegen`.  ``next`` runs them on every event, so it
computes each half-width once per round and hands back the same verdict
object until a round completes.  ``run`` runs them only at the events whose
verdicts it writes and leaves the flags of later rounds set; ``next`` and
``state()`` rebuild from them before they read the verdict.  The state lives
in closure cells and in the lists above; only the verdict is an object.
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bounds import check_delta, mc_halfwidth, squared_width
from .codegen import (clip, compile_monitor, extreme, interval_product,
                      interval_reciprocal, interval_sum, lookup, symbol_codes)
from .errors import ConfigError, EventError, SpecValidationError
from .intervals import Interval
from .pomc import INCONCLUSIVE, Verdict
from .speclang.ast import (Add, Const, Expr, Mul, Sub, TransVar, contains_division,
                           fold, is_pse)
from .speclang.normal_form import decompose_division, to_polynomial
from .speclang.ranges import SlotLayout, assign_slots, expr_range

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


class _Part(NamedTuple):
    """A division-free part that runs rounds, as fixed at build."""

    expr: Expr
    delta: float
    layout: SlotLayout
    value_range: Interval
    sigma_sq: float
    halfwidth: Callable[[int], float]
    pool: _UniformPool


def _part(expr: Expr, delta: float, uniform: bool, seed: int) -> _Part:
    layout = assign_slots(expr)
    value_range = expr_range(expr)
    sigma_sq = squared_width(value_range.lo, value_range.hi)
    # a range whose squared width is NaN, such as [inf, inf], fails here
    return _Part(expr, delta, layout, value_range, sigma_sq,
                 mc_halfwidth(delta, sigma_sq, uniform), _UniformPool(seed))


class MCMonitor:
    """Streaming monitor for a PSE on a fully observed chain.

    ``next(symbol)`` returns the verdict after one more event; it is
    generated for the expression when the monitor is built.  The same
    verdict object comes back on every event on which no round completed.
    ``run(lines, record, emit, stride)`` runs the same step over the lines of
    a stream and writes every ``stride``-th verdict with ``emit`` (see
    :func:`fairmon.codegen.compile_monitor`); ``next`` continues from where
    it stopped.  ``source`` is the Python source of both.
    """

    def __init__(self, expr: Expr, delta: float, mode: str, seed: int = 0,
                 alphabet: Optional[Sequence[str]] = None):
        if mode not in _MODES:
            raise ConfigError(f"mode must be 'pointwise' or 'uniform', got {mode!r}")
        check_delta(delta)
        if not is_pse(expr):
            raise SpecValidationError("fully-observed monitoring needs a PSE "
                                      "(constants and transition variables only)")
        uniform = mode == "uniform"
        exprs = [expr]
        if contains_division(expr):
            dd = decompose_division(to_polynomial(expr))
            exprs = [dd.phi_a] if dd.is_trivial else [dd.phi_a, dd.phi_b, dd.phi_c]
        if len(exprs) == 1:
            self._parts: list = [_part(exprs[0], delta, uniform, seed)]  # _Part or constant
            self.value_range = self._parts[0].value_range
        else:
            # A constant c's rounds would say [c, c] from event 2 on, before any
            # other part can complete a round.  The other parts keep their seeds
            # and a third of delta each; the constant's third stays unspent,
            # because every half-width, and so every bit, depends on it.
            self._parts = []
            for k, part in enumerate(exprs):
                if not isinstance(part, Const):
                    self._parts.append(_part(part, delta / 3.0, uniform, seed * 3 + k))
                elif math.isfinite(part.value):
                    self._parts.append(part.value)
                else:
                    raise ConfigError(f"constant part {part.value!r} of a division "
                                      "is not finite")
            ra, rb, rc = (p.value_range if isinstance(p, _Part) else Interval(p, p)
                          for p in self._parts)
            self.value_range = ra + rb / rc
        monitored = [p for p in self._parts if isinstance(p, _Part)]

        # one code space: every part's sources, then their other targets
        sources = [s for p in monitored for s in p.layout.targets]
        targets = [t for p in monitored for tgts in p.layout.targets.values() for t in tgts]
        codes = {s: c for c, s in enumerate(dict.fromkeys(sources + targets))}
        self._codes = symbol_codes(codes, alphabet)  # every other symbol: len(codes)
        # counters per (part, source), numbered in part order, then source order
        self._c: List[int] = []
        self._cij: List[List[int]] = []
        self._z: List[list] = []
        self._rows: List[List[int]] = []
        self._draw: List[Callable[[], float]] = []
        for p in monitored:
            for tgts in p.layout.targets.values():
                row = [-1] * (len(codes) + 1)
                for j, tgt in enumerate(tgts):
                    row[codes[tgt]] = j
                self._rows.append(row)
                self._c.append(0)
                self._cij.append([0] * len(tgts))
                self._z.append([])
                self._draw.append(p.pool.random)
        # counters, edges, outcome caches and five scalars per part; buffers vary
        self._registers = (len(self._c) + sum(map(len, self._cij))
                           + sum(len(p.layout.slots) + 5 for p in monitored))
        self.peak_buffer = 0
        (self.next, self.run, self._state), self.source = _generate_step(self, codes)

    @property
    def n_samples(self) -> int:
        """Completed rounds: the fewest of any part."""
        return min(n for n, _ in self._state()[1])

    @property
    def mean(self) -> float:
        """The running mean of a division-free expression's round outcomes."""
        return self._single("mean", self._state()[1][0][1])

    @property
    def sigma_sq(self) -> float:
        """The squared width of a division-free expression's range."""
        return self._single("sigma_sq", self._parts[0].sigma_sq)

    def _single(self, name: str, value):
        if len(self._parts) > 1:
            raise AttributeError(f"{name}: each part of a + b / c has its own")
        return value

    def register_count(self) -> int:
        """Live registers: counters, buffer cells, caches, and scalars."""
        return self._registers + sum(map(len, self._z))

    def feed(self, symbols) -> Verdict:
        v = self._state()[0]
        step = self.next
        for s in symbols:
            v = step(s)
        return v

    def _extract(self, k: int, upto: int):
        """Draw into buffer ``k`` until it holds ``upto`` or its pool is empty."""
        z = self._z[k]
        ci = self._c[k]
        counts = self._cij[k]
        rnd = self._draw[k]
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
        self._c[k] = ci
        if len(z) > self.peak_buffer:
            self.peak_buffer = len(z)


# the name under which perfbench builds a monitor of one division-free part
MCMonitorDivFree = MCMonitor


def _generate_step(mon: MCMonitor, codes: dict) -> Tuple[tuple, str]:
    """``next``, ``run`` and ``state`` of ``mon``, whose relevant states have the
    ``codes``, as compiled Python, and their source."""
    ns = {"INF": math.inf, "Interval": Interval, "Verdict": Verdict,
          "INCONCLUSIVE": INCONCLUSIVE, "EventError": EventError,
          "extract": mon._extract, "cnt": mon._c, "edges": mon._cij, "rows": mon._rows}
    state = ["t = 0", "prev = -1", "verdict = INCONCLUSIVE"]
    head = [*lookup(mon._codes, ns), "t += 1", "p = prev", "prev = c"]
    counters, rounds, verdict, terms = [], [], [], []
    samples = []  # (n, mean) per part
    split = len(mon._parts) > 1
    base = 0  # number of the part's first (part, source) counter
    for t, part in enumerate(mon._parts):
        if not isinstance(part, _Part):
            ns[f"const{t}"] = part
            terms.append((f"const{t}",) * 3)
            continue
        i = len(samples)
        layout = part.layout
        srcs = list(layout.targets)
        ns[f"range_lo{i}"], ns[f"range_hi{i}"] = part.value_range.lo, part.value_range.hi
        ns[f"halfwidth{i}"] = part.halfwidth
        blocked, n, m, lo, hi = f"blocked{i}", f"n{i}", f"m{i}", f"lo{i}", f"hi{i}"
        fresh = f"fresh{i}"  # a round completed since the part's interval was built
        state += [f"{blocked} = None", f"{n} = 0", f"{m} = 0.0", f"{fresh} = False"]
        if srcs:
            where = [-1] * (len(codes) + 1)  # the part's counter by code, -1 for none
            for s, src in enumerate(srcs):
                where[codes[src]] = base + s
                ns[f"z{base + s}"] = mon._z[base + s]
            ns[f"where{i}"] = where
            counters += [f"k = where{i}[p]",
                         "if k >= 0:",
                         "    cnt[k] += 1",
                         "    j = rows[k][c]",
                         "    if j >= 0: edges[k][j] += 1",
                         f"    if {blocked} == k: {blocked} = None"]

        # every occurrence, in leaves order: its cached outcome, else its slot's
        # draw, else the round waits on its source
        reads, cache = [], []

        def var(node: TransVar):
            source, slot = layout.slots[len(cache)]
            k = base + srcs.index(source)
            target = layout.targets[source].index(node.target)
            v = f"v{i}_{len(cache)}"
            cache.append(v)
            reads.extend([f"if {v} is None:",
                          f"    if len(z{k}) < {slot} and cnt[{k}]: extract({k}, {slot})",
                          f"    if len(z{k}) >= {slot}:",
                          f"        {v} = 1.0 if z{k}[{slot - 1}] == {target} else 0.0",
                          f"    else: {blocked} = {k}"])
            return v

        def const(node: Const):
            name = f"const{i}_{len(ns)}"
            ns[name] = node.value
            return name

        def binary(op):
            return lambda _, a, b: f"({a} {op} {b})"

        w = fold(part.expr, {Const: const, TransVar: var,
                             Add: binary("+"), Sub: binary("-"), Mul: binary("*")})
        state += [f"{v} = None" for v in cache]
        # the recurrence can round the running mean out of the range
        done = [f"{n} += 1",
                *extreme(m, [f"({m} * ({n} - 1) + {w}) / {n}", f"range_lo{i}"], ">"),
                *extreme(m, [m, f"range_hi{i}"], "<"),
                f"{fresh} = True",
                *(f"z{base + s}.clear()" for s in range(len(srcs)))]
        interval = [f"{fresh} = False",
                    f"e = halfwidth{i}({n})",
                    *clip((lo, hi), (f"{m} - e", f"{m} + e"), (f"range_lo{i}", f"range_hi{i}"))]
        if split:
            state += [f"{lo} = 0.0", f"{hi} = 0.0"]
            interval.append(f"if not {lo} <= {hi}: Interval({lo}, {hi})")
        else:
            interval.append(f"verdict = Verdict(Interval({lo}, {hi}), {m})")
        verdict += [f"if {fresh}:", *("    " + line for line in interval)]
        if cache:
            done.append(" = ".join(cache) + " = None")
        rounds += [f"if {blocked} is None:",
                   *("    " + line for line in reads),
                   f"    if {blocked} is None:",
                   *("        " + line for line in done)]
        terms.append((lo, hi, m))
        samples.append((n, m))
        base += len(srcs)

    if split:
        # a + b / c on the parts' endpoints, clipped to the range
        (alo, ahi, ap), (blo, bhi, bp), (clo, chi, cp) = terms
        ns["range_lo"], ns["range_hi"] = mon.value_range.lo, mon.value_range.hi
        fold_lines = [*interval_reciprocal(("ilo", "ihi"), (clo, chi)),
                      *interval_product(("plo", "phi"), (blo, bhi), ("ilo", "ihi"), ""),
                      *interval_sum(("lo", "hi"), (alo, ahi), ("plo", "phi")),
                      f"point = {ap} + {bp} / {cp} if {cp} != 0.0 else None",
                      *clip(("lo", "hi"), ("lo", "hi"), ("range_lo", "range_hi")),
                      "verdict = Verdict(Interval(lo, hi), point)"]
        verdict = [f"if {' or '.join(f'fresh{i}' for i in range(len(samples)))}:",
                   *("    " + line for line in verdict),
                   f"    if {' and '.join(n for n, _ in samples)}:",
                   *("        " + line for line in fold_lines)]
    # state() builds the verdict that run left to build, as next does
    reader = [*verdict, "return verdict, (" + "".join(f"({n}, {m}), " for n, m in samples) + ")"]

    def event(exit):
        return [*head, "if p < 0:", *("    " + line for line in exit("verdict")),
                *counters, *rounds], verdict, "verdict"

    return compile_monitor(state, event, ns, "<fairmon.mc step>", extra=[("state()", reader)])


def build_mc_monitor(expr: Expr, delta: float, mode: str, seed: int = 0,
                     alphabet: Optional[Sequence[str]] = None) -> MCMonitor:
    """Monitor for an arbitrary PSE: one part when division free, else a + b / c."""
    return MCMonitor(expr, delta, mode, seed=seed, alphabet=alphabet)
