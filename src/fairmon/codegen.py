"""Source lines that the generated per-event steps of both engines share.

:mod:`fairmon.pomc` and :mod:`fairmon.mc` each write their per-event step as
straight-line Python when a monitor is built.  The interval lines here keep
the formulas of :class:`~fairmon.intervals.Interval`, with the operand order
of every ``min`` and ``max`` written out as the comparisons the builtin
makes, so a generated step computes the bits that the ``Interval`` methods
would.  Each function returns lines over the names it is given; the caller
binds those names and emits the point rules of its own engine.

:func:`compile_monitor` compiles one step twice over the same closure cells:
as ``next(symbol)``, which returns the verdict of one event, and inside
``run(lines, record, emit, stride)``, the loop over a whole stream that
writes every ``stride``-th verdict.  The step writes each of its exits
through one hook, :func:`returned` for ``next`` and :func:`recorded` for
``run``, so both functions run the same lines.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple

Names = Tuple[str, str]  # the names of an interval's lo and hi
Exit = Callable[..., list]  # returned or recorded


class _Unnamed(dict):
    """Codes in which every symbol the dict does not hold has the next code."""
    def __missing__(self, symbol):
        return len(self)


def symbol_codes(named: Iterable[str], alphabet: Optional[Sequence[str]]) -> dict:
    """Codes 0, 1, ... of the ``named`` symbols, and the next code for every
    other symbol, since the step cannot tell them apart.  With an
    ``alphabet`` the map holds its symbols alone."""
    codes = _Unnamed((s, c) for c, s in enumerate(dict.fromkeys(named)))
    return {s: codes[s] for s in alphabet} if alphabet else codes


def lookup(codes: dict, ns: dict) -> list:
    """Lines setting ``c`` to the code of ``symbol`` in ``codes``, bound in
    ``ns``; a symbol it lacks raises ``EventError`` before any state moves."""
    ns["codes"] = codes
    return ["try: c = codes[symbol]", "except KeyError: raise EventError(symbol) from None"]


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


def returned(verdict: str = "", interval: Optional[Tuple[str, str, str]] = None) -> list:
    """An exit of ``next``: return the verdict ``verdict``, or the consistent
    verdict of the names ``interval``, (lo, hi, point)."""
    if interval is not None:
        verdict = "Verdict(Interval({}, {}), {})".format(*interval)
    return [f"return {verdict}"]


def recorded(verdict: str = "", interval: Optional[Tuple[str, str, str]] = None) -> list:
    """The same exit in ``run``: at a multiple of the stride, ``emit`` writes
    the verdict ``verdict``, or ``record`` the numbers of ``interval`` after
    the check that building its ``Interval`` makes; then the next line."""
    if interval is None:
        return [f"if t % stride == 0: emit(t, {verdict})", "continue"]
    lo, hi, point = interval
    return [f"if not {lo} <= {hi}: Interval({lo}, {hi})",
            f"if t % stride == 0: record(t, {lo}, {hi}, {point})",
            "continue"]


def compile_monitor(state: Sequence[str], step: Callable[[Exit], list], ns: dict,
                    filename: str, extra: Sequence[Tuple[str, Sequence[str]]] = ()
                    ) -> Tuple[tuple, str]:
    """Compile ``make()`` and call it once.

    The ``state`` lines, ``name = value`` each, set the closure cells; one of
    them is ``t``, the count of events.  ``step(exit)`` returns the lines of
    one event, whose symbol is ``symbol``, with each exit written by
    ``exit``.  ``next(symbol)`` and each ``(signature, body)`` of ``extra``
    declare every cell nonlocal.

    ``run(lines, record, emit, stride)`` strips each line and skips the blank
    ones, and runs the step on the others.  It keeps the cells in fast locals
    and writes them back when it returns or raises, so ``next`` continues
    from where it stopped.  An ``EventError`` leaves with ``line``, the
    1-based number of its line among ``lines``.

    Returns ``(next, run, *extra functions)`` and the source.
    """
    cells = [line.split(" = ")[0] for line in state]
    names = f"[{', '.join(cells)}]"
    shared = f"nonlocal {', '.join(cells)}"
    run = [f"{names} = load()",
           "base, blank = t, 0",
           "try:",
           "    for line in lines:",
           "        symbol = line.strip()",
           "        if not symbol:",
           "            blank += 1",
           "            continue",
           *("        " + line for line in step(recorded)),
           "except EventError as exc:",
           "    exc.line = t - base + blank + 1",
           "    raise",
           "finally:",
           f"    store({names})"]
    functions = [("next(symbol)", [shared, *step(returned)]),
                 ("load()", [f"return {names}"]),
                 ("store(cells)", [shared, f"{names} = cells"]),
                 ("run(lines, record, emit, stride)", run),
                 *((signature, [shared, *body]) for signature, body in extra)]
    lines = ["def make():", *("    " + line for line in state)]
    for signature, body in functions:
        lines += [f"    def {signature}:", *("        " + line for line in body)]
    returned_names = ["next", "run", *(signature.split("(")[0] for signature, _ in extra)]
    lines.append(f"    return {', '.join(returned_names)}")
    source = "\n".join(lines)
    exec(compile(source, filename, "exec"), ns)
    return ns["make"](), source
