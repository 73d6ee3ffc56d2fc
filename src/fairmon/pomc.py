"""Windowed monitors for partially observed chains.

One monitor per expression keeps, for each atom (window function, arity,
range and confidence share), the running mean of its window evaluations.
After warm-up each event gives one verdict: every atom's mean plus/minus a
mixing-time-scaled half-width, folded through the expression tree with
interval arithmetic, an equal confidence share per atom.

When the monitor is built, ``fold`` walks the tree once and writes its
per-event step as straight-line Python source, compiled once with
``compile()`` and bound as the monitor's ``next``; the same lines, inside a
loop over the lines of a stream, are its ``run`` (see
:mod:`fairmon.codegen`).  The state (time, window words, means, half-width
tables, running intersection) lives in closure cells, and constants and
ranges are objects of the code's namespace, never text.  In the codes of
:func:`plan` the symbols that the atoms name come first, and every other
symbol shares one last code, as no window function tells them apart.  A
symbol becomes its code with one dict lookup; with a declared alphabet a
symbol outside it raises ``EventError`` before any state moves.  Each arity
keeps a rolling window word, ``w = (w * base + c) % base**n``, and an atom
reads its value as ``table[w]`` from a list of its values on every word of
its arity, built once; a table over ``_MAX_WORDS`` words is a ConfigError.

The half-width lines come first, and they call nothing.  Atoms with the same
(share, arity, range) share one half-width, and each such key keeps a list
of its half-widths at ``_BLOCK`` consecutive times from ``tb``: an event
reads ``e0 = E0[t - tb]``, and the event at which t reaches the end of the
block refills every list with one call.  The lists come from
:func:`fairmon.bounds.pomc_halfwidth_blocks`, the one function that
computes every ``pomc`` half-width, over an array of t, so every half-width
has the same bits wherever it is computed.  The mode of the
bound lives in these lists alone.

The other lines keep the formulas of :class:`Interval` with the same
operand order in every ``min`` and ``max``, each written out as the
comparisons the builtin makes, the ``0 * inf = 0`` product rule, the NaN
and empty check of every interval, the point rules (a sum's, difference's
or product's point is kept when it is finite, a reciprocal's when the
operand's point is nonzero), the clip to the expression's range and the
running intersection.  Only the clipped result becomes an ``Interval``.
The interval lines come from :mod:`fairmon.codegen`, which the ``mc``
step shares.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .bounds import pomc_halfwidth_blocks, split_delta
from .codegen import (clip, compile_monitor, extreme, interval_difference,
                      interval_product, interval_reciprocal, interval_sum, lookup,
                      symbol_codes)
from .errors import ConfigError, EventError
from .intervals import Interval
from .speclang.ast import (WILDCARD, Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub,
                           TransVar, fold, leaves, pretty_print, reject)
from .speclang.ranges import bse_range

_MODES = ("pointwise", "uniform")

INF = math.inf

# The most words a value table may hold: a table of 1 << 20 words is a list of
# a million references, 8 MB, which takes about 10 ms to fill.
_MAX_WORDS = 1 << 20

# Half-widths per table refill: a refill every 1024 events is 0.1% of them.
_BLOCK = 1024


class Verdict:
    """Monitor output: an interval with a point estimate, or no claim yet.

    A value: nothing assigns to its fields after ``__init__``, so a monitor
    may hand out the same verdict on several events.
    """

    __slots__ = ("interval", "point", "consistent")

    def __init__(self, interval: Optional[Interval], point: Optional[float] = None,
                 consistent: bool = True):
        self.interval = interval
        self.point = point
        self.consistent = consistent

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.interval, self.point, self.consistent)
                == (other.interval, other.point, other.consistent))

    def __hash__(self):
        return hash((self.interval, self.point, self.consistent))

    def __repr__(self):
        return (f"Verdict(interval={self.interval!r}, point={self.point!r}, "
                f"consistent={self.consistent!r})")

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
"""No claim yet: one value shared by every monitor, which nobody mutates."""


# first-match rules, None or an absent tail matching any symbol; default, arity, range
_WINDOWS = {
    Atom: lambda n: ([(tuple(None if s == WILDCARD else s for s in p), v)
                      for p, v in n.ref.rules], n.ref.default, n.ref.arity, n.ref.low, n.ref.high),
    SeqProb: lambda n: ([(w, 1.0) for w in n.words], 0.0, n.arity, 0.0, 1.0),
    TransVar: reject(ConfigError, "transition variables need the fully-observed engine"),
}


def plan(expr: Expr, delta: float, alphabet: Optional[Sequence[str]]) -> tuple:
    """Each symbol's code (:func:`fairmon.codegen.symbol_codes` of the symbols
    in ``P[...]`` words and in ``F[...]`` patterns other than ``_``), the
    number of codes, and per atom its values on every word of codes (oldest
    most significant) and its half-width key ``(share, arity, low, high)``.
    Each rule writes all the words it matches at once, the last rule first."""
    atoms = leaves(expr)
    shares = split_delta(delta, expr).shares() if atoms else []
    windows = [fold(leaf, _WINDOWS) for leaf in atoms]
    # the named symbols, then None, which reads as every symbol no atom names
    symbols = [*dict.fromkeys(s for rules, *_ in windows for p, _ in rules for s in p
                              if s is not None), None]
    base = len(symbols)
    code = {s: i for i, s in enumerate(symbols)}
    tables = []
    for leaf, (rules, default, n, low, high), share in zip(atoms, windows, shares):
        if base ** n > _MAX_WORDS:
            raise ConfigError(f"{pretty_print(leaf)} needs a value table of {base}**{n} "
                              f"words, more than {_MAX_WORDS}")
        which = np.zeros((base,) * n, dtype=np.intp)  # 0: the default, k: rule k - 1
        for k in range(len(rules), 0, -1):
            which[tuple(slice(None) if s is None else code[s] for s in rules[k - 1][0])] = k
        values = np.array([default, *(v for _, v in rules)], dtype=object)
        tables.append((values.take(which.ravel()).tolist(), (share, n, low, high)))
    return symbol_codes(symbols[:-1], alphabet), base, tables


def _generate_step(expr: Expr, delta: float, uniform: bool, tau_mix: float,
                   alphabet: Optional[Sequence[str]], intersect: bool) -> Tuple[tuple, str]:
    """``next`` and ``run`` of a monitor of ``expr``, as compiled Python, and their source."""
    rng = bse_range(expr)
    codes, base, atoms = plan(expr, delta, alphabet)
    ns = {"INF": INF, "NAN": math.nan, "Interval": Interval, "Verdict": Verdict,
          "INCONCLUSIVE": INCONCLUSIVE, "EventError": EventError,
          "range_lo": rng.lo, "range_hi": rng.hi}
    state = ["t = 0"]
    step = []  # lines of a warm event, after the half-widths
    warmup = []  # lines of an event before the largest arity is filled
    keys: dict = {}  # (share, n, low, high) -> index of its half-width table
    arities = {n for _, (_, n, _, _) in atoms}
    width = max(arities, default=1)
    for i, (table, (share, n, low, high)) in enumerate(atoms):
        ns[f"low{i}"], ns[f"high{i}"], ns[f"table{i}"] = low, high, table
        value = f"table{i}[c]" if n == 1 else f"table{i}[w{n}]"
        k = keys.setdefault((share, n, low, high), len(keys))
        state.append(f"m{i} = 0.0")
        count = "t" if n == 1 else f"(t - {n - 1})"  # windows seen, as an int
        # the recurrence can round the running mean out of the range
        mean = extreme(f"m{i}", [f"(m{i} * (t - {n}) + {value}) / {count}", f"low{i}"], ">")
        mean += extreme(f"m{i}", [f"m{i}", f"high{i}"], "<")
        if n < width:
            warmup += mean if n == 1 else [f"if t >= {n}:", *("    " + x for x in mean)]
        step += [*mean,
                 *extreme(f"lo{i}", [f"m{i} - e{k}", f"low{i}"], ">"),
                 *extreme(f"hi{i}", [f"m{i} + e{k}", f"high{i}"], "<"),
                 f"if not lo{i} <= hi{i}: Interval(lo{i}, hi{i})"]
    if keys:
        # each key's half-widths at t in [tb, tb + _BLOCK); the first warm
        # event fills the first block
        block = pomc_halfwidth_blocks(list(keys), tau_mix, uniform)

        def fill(t):
            return (t, *(eps.tolist() for eps in block(t, t + _BLOCK)))

        ns["fill"] = fill
        tables = [f"E{k}" for k in range(len(keys))]
        state += [f"tb = {-_BLOCK}", *(f"{table} = ()" for table in tables)]
        step[:0] = ["j = t - tb",
                    f"if j >= {_BLOCK}:",
                    f"    tb, {', '.join(tables)} = fill(t)",
                    "    j = 0",
                    *(f"e{k} = {table}[j]" for k, table in enumerate(tables))]

    leaf_index, temp = itertools.count(), itertools.count()

    # each node's (lo, hi, point) names; a point is NaN where it is not kept
    def leaf(_):
        i = next(leaf_index)
        return f"lo{i}", f"hi{i}", f"m{i}"

    def const(node):
        name = f"const{next(temp)}"
        ns[name] = node.value
        return name, name, name

    def binary(op):
        def emit(_, a, b):
            j = next(temp)
            lo, hi, p = f"lo_{j}", f"hi_{j}", f"p_{j}"
            (alo, ahi, ap), (blo, bhi, bp) = a, b
            if op == "+":
                step.extend(interval_sum((lo, hi), (alo, ahi), (blo, bhi)))
            elif op == "-":
                step.extend(interval_difference((lo, hi), (alo, ahi), (blo, bhi)))
            else:
                step.extend(interval_product((lo, hi), (alo, ahi), (blo, bhi), f"_{j}"))
            # a sum's, difference's or product's point is kept when it is finite
            step.extend([f"{p} = {ap} {op} {bp}",
                         f"if not -INF < {p} < INF: {p} = NAN",
                         f"if not {lo} <= {hi}: Interval({lo}, {hi})"])
            return lo, hi, p
        return emit

    def inverse(_, a):
        j = next(temp)
        lo, hi, p = f"lo_{j}", f"hi_{j}", f"p_{j}"
        alo, ahi, ap = a
        step.append(f"{p} = 1.0 / {ap} if {ap} else NAN")
        step.extend(interval_reciprocal((lo, hi), (alo, ahi)))
        return lo, hi, p

    root_lo, root_hi, p = fold(expr, {
        Atom: leaf, SeqProb: leaf, Const: const,
        Add: binary("+"), Sub: binary("-"), Mul: binary("*"), Inv: inverse,
    })
    # not the root's own name, which may be a mean cell or a namespace constant
    step.append(f"point = None if {p} != {p} else {p}")
    step += clip(("lo", "hi"), (root_lo, root_hi), ("range_lo", "range_hi"))
    if intersect:
        state += ["running = None", "consistent = True"]

    # each event: its code, then the window words, then warm-up or a verdict
    head = [*lookup(codes, ns), "t += 1"]
    for n in sorted(arities - {1}):
        state.append(f"w{n} = 0")
        head.append(f"w{n} = (w{n} * {base} + c) % {base ** n}")

    def event(exit):
        lines = list(head)
        if width > 1:
            lines += [f"if t < {width}:",
                      *("    " + line for line in warmup + exit("INCONCLUSIVE"))]
        lines += step
        if intersect:
            inconsistent = exit("Verdict(interval=None, point=point, consistent=False)")
            lines += ["if not lo <= hi: Interval(lo, hi)",
                      "rlo, rhi = running or (lo, hi)",
                      "consistent &= rlo <= hi and lo <= rhi",
                      "if not consistent:",
                      *("    " + line for line in inconsistent),
                      "lo, hi = lo if lo > rlo else rlo, hi if hi < rhi else rhi",  # max, min
                      "running = lo, hi"]
        return lines + exit(interval=("lo", "hi", "point"))

    return compile_monitor(state, event, ns, "<fairmon.pomc step>")


class CompositeMonitor:
    """Expression-tree monitor over one window of the stream.

    ``next(symbol)`` returns the verdict after one more event; it is
    generated for the expression when the monitor is built.  Inconclusive
    until the window holds the largest arity.  Division through an interval
    containing zero gives an unbounded verdict.  The folded interval is
    clipped to the expression's a-priori range, where the true value
    certainly lies.  Running intersection is only sound for uniform
    intervals; a verdict disjoint from it makes every later one inconsistent.

    ``run(lines, record, emit, stride)`` runs the same step over the lines of
    a stream and writes every ``stride``-th verdict (see
    :func:`fairmon.codegen.compile_monitor`); ``next`` continues from where
    it stopped.  ``source`` is the Python source of both.
    """

    def __init__(self, expr: Expr, delta: float, mode: str, tau_mix: float,
                 alphabet: Optional[Sequence[str]] = None,
                 intersect_verdicts: bool = False):
        if mode not in _MODES:
            raise ConfigError(f"mode must be 'pointwise' or 'uniform', got {mode!r}")
        if not tau_mix >= 1.0:
            raise ConfigError(f"mixing-time bound must be >= 1, got {tau_mix}")
        if intersect_verdicts and mode != "uniform":
            raise ConfigError("intersecting verdicts over time needs uniform mode")
        self.next: Callable[[str], Verdict]
        (self.next, self.run), self.source = _generate_step(
            expr, delta, mode == "uniform", tau_mix, alphabet, intersect_verdicts)


def build_pomc_monitor(expr: Expr, delta: float, mode: str, tau_mix: float,
                       alphabet: Optional[Sequence[str]] = None,
                       intersect_verdicts: bool = False) -> CompositeMonitor:
    return CompositeMonitor(expr, delta, mode, tau_mix, alphabet, intersect_verdicts)
