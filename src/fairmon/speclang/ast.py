"""Abstract syntax of quantitative fairness specifications.

An expression is built from real constants, table-defined window atoms,
sequence-probability atoms, transition variables, and the arithmetic
connectives ``+ - *`` and reciprocal.  ``a / b`` is sugar for ``a * (1/b)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..errors import SpecValidationError

Word = Tuple[str, ...]

WILDCARD = "_"


@dataclass(frozen=True)
class AtomDef:
    """A bounded window function defined by a first-match-wins pattern table.

    Patterns are length-``arity`` tuples of symbols, ``_`` matching anything.
    Every table value and the default must lie in ``[low, high]``.
    """

    name: str
    arity: int
    low: float
    high: float
    rules: Tuple[Tuple[Word, float], ...]
    default: float

    def __post_init__(self):
        if self.arity < 1:
            raise SpecValidationError(f"atom {self.name}: arity must be positive")
        if self.low > self.high:
            raise SpecValidationError(f"atom {self.name}: range [{self.low},{self.high}] is empty")
        for pattern, value in self.rules:
            if len(pattern) != self.arity:
                raise SpecValidationError(
                    f"atom {self.name}: pattern {' '.join(pattern)} has length "
                    f"{len(pattern)}, expected {self.arity}")
            if not self.low <= value <= self.high:
                raise SpecValidationError(f"atom {self.name}: value {value} outside range")
        if not self.low <= self.default <= self.high:
            raise SpecValidationError(f"atom {self.name}: default {self.default} outside range")

    def evaluate(self, window) -> float:
        for pattern, value in self.rules:
            if all(p == WILDCARD or p == w for p, w in zip(pattern, window)):
                return value
        return self.default


class Expr:
    """Base class for expression nodes; subclasses are frozen dataclasses."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Atom(Expr):
    ref: AtomDef


@dataclass(frozen=True)
class SeqProb(Expr):
    """Long-run probability of seeing a word from ``words`` (prefix-extended)."""

    words: Tuple[Word, ...]

    def __post_init__(self):
        if not self.words or any(len(w) == 0 for w in self.words):
            raise SpecValidationError("sequence probability needs non-empty words")

    @property
    def arity(self) -> int:
        return max(len(w) for w in self.words)

    def indicator(self, window) -> float:
        for w in self.words:
            if all(a == b for a, b in zip(w, window)):
                return 1.0
        return 0.0


@dataclass(frozen=True)
class TransVar(Expr):
    source: str
    target: str


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Inv(Expr):
    child: Expr


_BINARY = {Add: "+", Sub: "-", Mul: "*"}


_OPERATORS = frozenset(_BINARY)


def fold(expr: Expr, alg):
    """Evaluate ``expr`` in the algebra ``alg``, a map from node class to handler.

    The walk is post-order, left child before right.  A leaf handler gets the
    node; an operator handler gets the node followed by its folded children.
    """
    kind = type(expr)
    if kind in _OPERATORS:
        return alg[kind](expr, fold(expr.left, alg), fold(expr.right, alg))
    if kind is Inv:
        return alg[Inv](expr, fold(expr.child, alg))
    return alg[kind](expr)


# Sums, differences and products of the children, for any number type.
ARITHMETIC = {
    Add: lambda _, a, b: a + b,
    Sub: lambda _, a, b: a - b,
    Mul: lambda _, a, b: a * b,
}


def const_value(node: Const) -> float:
    return node.value


def reject(error, message: str):
    """Handler raising ``error`` for nodes an algebra does not support."""

    def handler(node, *_):
        raise error(message.format(node=type(node).__name__))

    return handler


def _both(_, a, b):
    return a and b


def _either(_, a, b):
    return a or b


def _concat(_, a, b):
    return a + b


def _first(_, c):
    return c


_LEAVES = {
    Const: lambda _: [], Atom: lambda n: [n], SeqProb: lambda n: [n],
    TransVar: lambda n: [n], Add: _concat, Sub: _concat, Mul: _concat, Inv: _first,
}


def leaves(expr: Expr) -> List[Expr]:
    """Atom, SeqProb and TransVar leaves in left-to-right order.

    An occurrence of a leaf is identified by its index in this list.
    """
    return fold(expr, _LEAVES)


def count_atoms(expr: Expr) -> int:
    """Number of atomic leaves (constants do not count)."""
    return len(leaves(expr))


_SIZE = {
    Const: lambda _: 0, Atom: lambda _: 0, SeqProb: lambda _: 0, TransVar: lambda _: 0,
    Add: lambda _, a, b: 1 + a + b, Sub: lambda _, a, b: 1 + a + b,
    Mul: lambda _, a, b: 1 + a + b, Inv: lambda _, c: 1 + c,
}


def expression_size(expr: Expr) -> int:
    """Total number of operators, the size measure used for register bounds."""
    return fold(expr, _SIZE)


_IS_PSE = {
    Const: lambda _: True, TransVar: lambda _: True,
    Atom: lambda _: False, SeqProb: lambda _: False,
    Add: _both, Sub: _both, Mul: _both, Inv: _first,
}


def is_pse(expr: Expr) -> bool:
    """True when the expression only uses constants and transition variables."""
    return fold(expr, _IS_PSE)


_HAS_DIVISION = {
    Const: lambda _: False, Atom: lambda _: False, SeqProb: lambda _: False,
    TransVar: lambda _: False, Add: _either, Sub: _either, Mul: _either,
    Inv: lambda *_: True,
}


def contains_division(expr: Expr) -> bool:
    """True when the expression takes a reciprocal anywhere."""
    return fold(expr, _HAS_DIVISION)


def eval_pse(expr: Expr, valuation) -> float:
    """Evaluate a PSE under a ``(source, target) -> value`` valuation."""
    not_pse = reject(SpecValidationError, "{node} node is not part of a PSE")
    return fold(expr, {
        **ARITHMETIC, Const: const_value, Atom: not_pse, SeqProb: not_pse,
        TransVar: lambda n: valuation[(n.source, n.target)],
        Inv: lambda _, c: 1.0 / c,
    })


def _fmt_number(v: float) -> str:
    return repr(float(v))


def _fmt_word(word: Word) -> str:
    return " ".join(word)


def _fmt_words(words: Tuple[Word, ...]) -> str:
    return ", ".join(_fmt_word(w) for w in words)


def _precedence(expr: Expr) -> int:
    if isinstance(expr, (Add, Sub)):
        return 1
    if isinstance(expr, (Mul, Inv)):
        return 2
    return 3


def pretty_print(expr: Expr) -> str:
    """Render an expression; ``parse(pretty_print(e))`` is structurally ``e``."""

    def wrap(child: Expr, parent_prec: int, right: bool) -> str:
        text = pretty_print(child)
        prec = _precedence(child)
        if prec < parent_prec or (right and prec == parent_prec):
            return f"({text})"
        return text

    if isinstance(expr, Const):
        return _fmt_number(expr.value)
    if isinstance(expr, Atom):
        return f"F[{expr.ref.name}]"
    if isinstance(expr, SeqProb):
        return f"P[{_fmt_words(expr.words)}]"
    if isinstance(expr, TransVar):
        return f"T[{expr.source}->{expr.target}]"
    if isinstance(expr, Inv):
        return f"1 / {wrap(expr.child, 2, True)}"
    if isinstance(expr, Mul) and isinstance(expr.right, Inv) and expr.left != Const(1.0):
        # a * (1/b) prints as a division; a literal 1 numerator stays explicit
        # so the parser's 1/x -> Inv(x) shortcut cannot change the structure
        return f"{wrap(expr.left, 2, False)} / {wrap(expr.right.child, 2, True)}"
    if isinstance(expr, (Add, Sub, Mul)):
        op = _BINARY[type(expr)]
        prec = _precedence(expr)
        return f"{wrap(expr.left, prec, False)} {op} {wrap(expr.right, prec, True)}"
    raise TypeError(f"unknown node {expr!r}")
