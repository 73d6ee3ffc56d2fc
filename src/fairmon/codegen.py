"""Source lines that the generated per-event steps of both engines share.

:mod:`fairmon.pomc` and :mod:`fairmon.mc` each write their per-event step as
straight-line Python when a monitor is built.  The interval lines here keep
the formulas of :class:`~fairmon.intervals.Interval`, with the operand order
of every ``min`` and ``max`` written out as the comparisons the builtin
makes, so a generated step computes the bits that the ``Interval`` methods
would.  Each function returns lines over the names it is given; the caller
binds those names and emits the point rules of its own engine.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

Names = Tuple[str, str]  # the names of an interval's lo and hi


def extreme(target: str, items: Sequence[str], op: str) -> list:
    """Lines setting ``target`` to ``max(*items)`` (op ``>``) or ``min(*items)``
    (op ``<``) with the builtin's comparisons, in its order: a later item
    replaces the one kept when it compares above (below) it, so ties, signed
    zeros and NaN come out as the builtin's.  Only the first item may
    mention ``target``.
    """
    first, *rest = items
    lines = [] if first == target else [f"{target} = {first}"]
    return lines + [f"if {x} {op} {target}: {target} = {x}" for x in rest]


def interval_sum(out: Names, a: Names, b: Names) -> list:
    return [f"{out[0]}, {out[1]} = {a[0]} + {b[0]}, {a[1]} + {b[1]}"]


def interval_difference(out: Names, a: Names, b: Names) -> list:
    return [f"{out[0]}, {out[1]} = {a[0]} - {b[1]}, {a[1]} - {b[0]}"]


def interval_product(out: Names, a: Names, b: Names, key: str) -> list:
    """The corner products of :func:`~fairmon.intervals.product`, in its
    order, as names ``q0{key}``..``q3{key}``, then their least and greatest."""
    # 0 * inf = 0 keeps a product sound when a factor is exactly zero
    ps = [f"0.0 if {x} == 0.0 or {y} == 0.0 else {x} * {y}" for x in a for y in b]
    qs = [f"q{c}{key}" for c in range(4)]
    return ([f"{q} = {e}" for q, e in zip(qs, ps)]
            + extreme(out[0], qs, "<") + extreme(out[1], qs, ">"))


def interval_reciprocal(out: Names, a: Names) -> list:
    """:func:`~fairmon.intervals.reciprocal`: unbounded when ``a`` contains 0."""
    (lo, hi), (alo, ahi) = out, a
    return [f"if {alo} <= 0.0 <= {ahi}:",
            f"    {lo}, {hi} = -INF, INF",
            "else:",
            f"    {lo}, {hi} = 1.0 / {ahi}, 1.0 / {alo}",
            f"    if not {lo} <= {hi}: Interval({lo}, {hi})"]


def clip(out: Names, a: Names, bounds: Names) -> list:
    """``out`` = ``a`` clipped to the range ``bounds``: ``max`` and ``min``."""
    return extreme(out[0], [a[0], bounds[0]], ">") + extreme(out[1], [a[1], bounds[1]], "<")


def compile_closure(state: Sequence[str], functions: Sequence[Tuple[str, Sequence[str]]],
                    ns: dict, filename: str) -> Tuple[Callable, str]:
    """Compile ``make()`` and call it once.

    The ``state`` lines, ``name = value`` each, set the closure cells; each
    ``(signature, body)`` of ``functions`` becomes a function inside
    ``make()`` that declares every cell nonlocal.  Returns what ``make()``
    returns, the one function or a tuple of them in order, and the source.
    """
    cells = [line.split(" = ")[0] for line in state]
    lines = ["def make():", *("    " + line for line in state)]
    for signature, body in functions:
        lines += [f"    def {signature}:",
                  f"        nonlocal {', '.join(cells)}",
                  *("        " + line for line in body)]
    names = [signature.split("(")[0] for signature, _ in functions]
    lines.append(f"    return {', '.join(names)}")
    source = "\n".join(lines)
    exec(compile(source, filename, "exec"), ns)
    return ns["make"](), source
