"""Draw-slot layout and exact value ranges for monitored expressions.

The fully-observed monitor reads, per evaluation round, a shuffled sequence
of recorded successors for every relevant source state.  Which position of
that sequence a variable occurrence reads is static: products whose factors
share a source state shift the right factor past every slot the left factor
uses, so that the two factors consume distinct visits.  An occurrence is
identified by its index in ``leaves(expr)``, so duplicate uses of the same
transition variable get slots of their own.  The slot layout determines the
exact range of the per-round outcome, which in turn sets the width scale of
the confidence intervals.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import SpecValidationError
from ..intervals import UNIT, Interval
from .ast import (ARITHMETIC, Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub,
                  TransVar, const_value, fold, reject)

TOP = "⊤"  # drawn visit led to no relevant successor


@dataclass(frozen=True)
class SlotLayout:
    slots: Dict[int, Tuple[str, int]]    # (source, 1-based read position) per occurrence
    demand: Dict[str, int]               # slots needed per source state
    targets: Dict[str, Tuple[str, ...]]  # relevant successors per source

    @property
    def draw_slots(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(sorted(set(self.slots.values())))


def assign_slots(expr: Expr) -> SlotLayout:
    """Static read positions implementing the temporal shift of products.

    For a product whose factors depend on a common source state, every
    occurrence on the right is offset by the number of slots the left factor
    demands for that state, so the sample counts add up; sums and
    differences share slots freely.
    """
    slots: Dict[int, Tuple[str, int]] = {}
    targets: Dict[str, set] = {}

    # each handler returns (demand per source, occurrence indices below the node)
    def var(node: TransVar):
        i = len(slots)
        slots[i] = (node.source, 1)
        targets.setdefault(node.source, set()).add(node.target)
        return {node.source: 1}, (i,)

    def shared(_, left, right):
        (ld, lv), (rd, rv) = left, right
        return {s: max(ld.get(s, 0), rd.get(s, 0)) for s in ld.keys() | rd.keys()}, lv + rv

    def product(_, left, right):
        (ld, lv), (rd, rv) = left, right
        for i in rv:
            source, slot = slots[i]
            if source in ld:
                slots[i] = (source, slot + ld[source])
        return {s: ld.get(s, 0) + rd.get(s, 0) for s in ld.keys() | rd.keys()}, lv + rv

    only_pse = reject(SpecValidationError,
                      "{node} node has no slot; only PSEs have slot layouts")
    demand, _ = fold(expr, {
        Const: lambda _: ({}, ()), TransVar: var, Atom: only_pse, SeqProb: only_pse,
        Add: shared, Sub: shared, Mul: product,
        Inv: reject(SpecValidationError, "slot layout requires a division-free expression"),
    })
    return SlotLayout(slots=slots, demand=demand,
                      targets={s: tuple(sorted(t)) for s, t in targets.items()})


def _eval_assignment(expr: Expr, layout: SlotLayout, assignment) -> float:
    occurrence = itertools.count()

    def var(node: TransVar) -> float:
        return 1.0 if assignment[layout.slots[next(occurrence)]] == node.target else 0.0

    return fold(expr, {**ARITHMETIC, Const: const_value, TransVar: var})


def expr_range(expr: Expr, slot_limit: int = 16) -> Interval:
    """Exact min/max of the per-round outcome over all joint draw results.

    Each draw slot independently takes one of the relevant successors of its
    source state, or none of them; the expression value is extremized over
    the full joint assignment.  Above ``slot_limit`` slots the exponential
    enumeration is replaced by per-occurrence interval arithmetic, which is
    an enclosure rather than exact.
    """
    layout = assign_slots(expr)
    slots = layout.draw_slots
    if not slots or len(slots) > slot_limit:
        return bse_range(expr)

    domains = [layout.targets[src] + (TOP,) for src, _ in slots]
    lo = hi = None
    for combo in itertools.product(*domains):
        assignment = dict(zip(slots, combo))
        v = _eval_assignment(expr, layout, assignment)
        lo = v if lo is None or v < lo else lo
        hi = v if hi is None or v > hi else hi
    return Interval(lo, hi)


def _is_unit_ratio(num: Expr, den: Expr) -> bool:
    # P[uv]/P[u]: every numerator word extends some denominator word, so the
    # ratio is a conditional probability and stays in [0, 1].
    if not (isinstance(num, SeqProb) and isinstance(den, SeqProb)):
        return False
    for word in num.words:
        if not any(word[:len(d)] == d and len(word) > len(d) for d in den.words):
            return False
    return True


def _bse_product(node: Mul, left: Interval, right: Interval) -> Interval:
    if isinstance(node.right, Inv) and _is_unit_ratio(node.left, node.right.child):
        return UNIT
    return left * right


_BSE = {
    **ARITHMETIC, Mul: _bse_product,
    Const: lambda n: Interval.point(n.value),
    Atom: lambda n: Interval(n.ref.low, n.ref.high),
    SeqProb: lambda _: UNIT, TransVar: lambda _: UNIT,
    Inv: lambda _, c: c.inverse(),
}


def bse_range(expr: Expr) -> Interval:
    """A-priori range of an expression by interval propagation.

    Conditional-probability ratios produced by ``P[v | u]`` are recognized
    structurally and refined to [0, 1].
    """
    return fold(expr, _BSE)
