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
writes every ``stride``-th verdict.  A step comes in two line lists.  Its
advance lines are what every event must move: the symbol's code, ``t`` and
the state that the next event reads.  Its verdict lines turn those cells
into a verdict.  ``next`` runs both on every event; ``run`` runs the
verdict lines only at the events whose verdicts it writes.  The step writes
each early exit through one hook, :func:`returned` for ``next`` and
:func:`recorded` for ``run``, so both functions run the same lines.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

Names = Tuple[str, str]  # the names of an interval's lo and hi
Result = Union[str, Tuple[str, str, str]]  # a verdict's name, or (lo, hi, point)
Exit = Callable[[Result], list]  # returned or recorded


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


def returned(result: Result) -> list:
    """An exit of ``next``: return the verdict named ``result``, or the
    consistent verdict of the names ``result``, (lo, hi, point)."""
    if not isinstance(result, str):
        result = "Verdict(Interval({}, {}), {})".format(*result)
    return [f"return {result}"]


def written(result: Result) -> list:
    """The same exit in ``run`` at a multiple of the stride: ``emit`` writes
    the verdict named ``result``, or ``record`` the numbers of the names
    ``result`` after the check that building its ``Interval`` makes."""
    if isinstance(result, str):
        return [f"emit(t, {result})"]
    lo, hi, point = result
    return [f"if not {lo} <= {hi}: Interval({lo}, {hi})", f"record(t, {lo}, {hi}, {point})"]


def recorded(result: Result) -> list:
    """An exit of ``run`` before its verdict lines: write ``result`` at a
    multiple of the stride, then the next line."""
    return ["if t % stride == 0:", *("    " + line for line in written(result)), "continue"]


def compile_monitor(state: Sequence[str], step: Callable[[Exit], Tuple[list, list, Result]],
                    ns: dict, filename: str, extra: Sequence[Tuple[str, Sequence[str]]] = ()
                    ) -> Tuple[tuple, str]:
    """Compile ``make()`` and call it once.

    The ``state`` lines, ``name = value`` each, set the closure cells; one of
    them is ``t``, the count of events.  ``step(exit)`` returns one event,
    whose symbol is ``symbol``, as ``(advance, verdict, result)``: the lines
    that every event runs, which may leave early through an exit written by
    ``exit``; the lines that build the verdict from the cells; and the
    verdict they build, as :func:`returned` takes it.  ``next(symbol)`` runs
    both line lists and returns the verdict.  It and each ``(signature,
    body)`` of ``extra`` declare every cell nonlocal.

    ``run(lines, record, emit, stride)`` strips each line and skips the blank
    ones, and runs ``advance`` on the others; only at a multiple of the
    stride does it run the verdict lines and write the verdict.  So the
    verdict lines may only read the cells, or leave behind what the next run
    of them would rebuild.  It keeps the cells in fast locals and writes
    them back when it returns or raises, so ``next`` continues from where it
    stopped.  An ``EventError`` leaves with ``line``, the 1-based number of
    its line among ``lines``.

    Returns ``(next, run, *extra functions)`` and the source.
    """
    cells = [line.split(" = ")[0] for line in state]
    advance, verdict, result = step(recorded)
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
           *("        " + line for line in advance),
           "        if t % stride == 0:",
           *("            " + line for line in [*verdict, *written(result)]),
           "except EventError as exc:",
           "    exc.line = t - base + blank + 1",
           "    raise",
           "finally:",
           f"    store({names})"]
    functions = [("next(symbol)", [shared, *step(returned)[0], *verdict, *returned(result)]),
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
