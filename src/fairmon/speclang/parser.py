"""Tokenizer and recursive-descent parser for specification text.

Expression grammar (infix, usual precedence, left associative):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := NUMBER | '-' factor | '(' expr ')'
             | 'F' '[' NAME ']'
             | 'P' '[' words ('|' words)? ']'
             | 'T' '[' SYMBOL '->' SYMBOL ']'
    words   := word (',' word)*
    word    := SYMBOL+

``P[v | u]`` desugars to ``P[u v] / P[u]`` and ``x / y`` to ``x * (1/y)``.

Spec files are UTF-8 text with three sections::

    alphabet: a b y n
    atom grant arity 2 range [0,1] { a y -> 1; default -> 0 }
    property: P[y | a] - P[y | b]

``#`` starts a comment.  Atoms are optional and may repeat.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..errors import SpecSyntaxError, SpecValidationError
from .ast import (Add, Atom, AtomDef, Const, Expr, Inv, Mul, SeqProb, Sub,
                  TransVar)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<op>[-+*/()\[\]|,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | name | arrow | op | end
    text: str
    line: int
    column: int


def _tokenize(text: str):
    line, line_start = 1, 0
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise SpecSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok_text = m.group()
        if kind != "ws":
            out.append(_Token(kind, tok_text, line, pos - line_start + 1))
        line += tok_text.count("\n")
        if "\n" in tok_text:
            line_start = pos + tok_text.rindex("\n") + 1
        pos = m.end()
    out.append(_Token("end", "", line, len(text) - line_start + 1))
    return out


class _Parser:
    def __init__(self, text: str, alphabet: Sequence[str], atoms: Dict[str, AtomDef],
                 allow_transvars: bool):
        self._tokens = _tokenize(text)
        self._idx = 0
        self._alphabet = set(alphabet)
        self._atoms = atoms
        self._allow_transvars = allow_transvars

    def _peek(self) -> _Token:
        return self._tokens[self._idx]

    def _advance(self) -> _Token:
        tok = self._tokens[self._idx]
        self._idx += 1
        return tok

    def _error(self, message: str, tok: Optional[_Token] = None):
        tok = tok or self._peek()
        raise SpecSyntaxError(message, tok.line, tok.column)

    def _expect(self, text: str) -> _Token:
        tok = self._advance()
        if tok.text != text:
            self._error(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def parse(self) -> Expr:
        expr = self._expr()
        tok = self._peek()
        if tok.kind != "end":
            self._error(f"unexpected trailing input {tok.text!r}", tok)
        return expr

    def _expr(self) -> Expr:
        node = self._term()
        while self._peek().text in ("+", "-"):
            op = self._advance().text
            rhs = self._term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._peek().text in ("*", "/"):
            op = self._advance().text
            rhs = self._factor()
            if op == "*":
                node = Mul(node, rhs)
            elif node == Const(1.0):
                node = Inv(rhs)
            else:
                node = Mul(node, Inv(rhs))
        return node

    def _factor(self) -> Expr:
        tok = self._peek()
        if tok.text == "-":
            self._advance()
            child = self._factor()
            if isinstance(child, Const):
                return Const(-child.value)
            return Sub(Const(0.0), child)
        if tok.text == "(":
            self._advance()
            node = self._expr()
            self._expect(")")
            return node
        if tok.kind == "number":
            self._advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            if tok.text == "F" and self._tokens[self._idx + 1].text == "[":
                return self._atom_ref()
            if tok.text == "P" and self._tokens[self._idx + 1].text == "[":
                return self._seq_prob()
            if tok.text == "T" and self._tokens[self._idx + 1].text == "[":
                return self._trans_var()
            self._error(f"unexpected identifier {tok.text!r} (atoms are written F[name])", tok)
        self._error(f"unexpected {tok.text or 'end of input'!r}", tok)

    def _atom_ref(self) -> Expr:
        self._advance()  # F
        self._expect("[")
        tok = self._advance()
        if tok.kind != "name":
            self._error("expected atom name", tok)
        atom = self._atoms.get(tok.text)
        if atom is None:
            self._error(f"unknown atom {tok.text!r}", tok)
        self._expect("]")
        return Atom(atom)

    def _symbol(self) -> str:
        tok = self._advance()
        if tok.kind not in ("name", "number"):
            self._error("expected an observation symbol", tok)
        if self._alphabet and tok.text not in self._alphabet:
            self._error(f"symbol {tok.text!r} not in the declared alphabet", tok)
        return tok.text

    def _words(self) -> Tuple[Tuple[str, ...], ...]:
        words = []
        while True:
            word = [self._symbol()]
            while self._peek().kind in ("name", "number"):
                word.append(self._symbol())
            words.append(tuple(word))
            if self._peek().text == ",":
                self._advance()
                continue
            return tuple(words)

    def _seq_prob(self) -> Expr:
        self._advance()  # P
        self._expect("[")
        first = self._words()
        if self._peek().text == "|":
            self._advance()
            given = self._words()
            self._expect("]")
            joint = tuple(u + v for u in given for v in first)
            return Mul(SeqProb(joint), Inv(SeqProb(given)))
        self._expect("]")
        return SeqProb(first)

    def _trans_var(self) -> Expr:
        tok = self._advance()  # T
        if not self._allow_transvars:
            self._error("transition variables need a fully observed chain "
                        "(engine 'mc'); not allowed here", tok)
        self._expect("[")
        source = self._symbol()
        arrow = self._advance()
        if arrow.kind != "arrow":
            self._error("expected '->'", arrow)
        target = self._symbol()
        self._expect("]")
        return TransVar(source, target)


def parse(text: str, alphabet: Sequence[str] = (), atoms: Sequence[AtomDef] = (),
          allow_transvars: bool = True) -> Expr:
    """Parse specification text into an expression tree.

    An empty alphabet disables symbol membership checks.  With
    ``allow_transvars=False`` (partially observed sessions) any ``T[...]``
    is rejected.
    """
    atom_map = {a.name: a for a in atoms}
    return _Parser(text, alphabet, atom_map, allow_transvars).parse()


@dataclass(frozen=True)
class SpecDocument:
    alphabet: Tuple[str, ...]
    atoms: Tuple[AtomDef, ...]
    expression: Expr
    property_text: str


_ATOM_HEAD_RE = re.compile(
    r"^atom\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s+arity\s+(?P<arity>\d+)\s+"
    r"range\s*\[\s*(?P<low>[^,\]]+)\s*,\s*(?P<high>[^,\]]+)\s*\]\s*\{(?P<body>.*)$",
    re.DOTALL,
)


def _parse_atom_block(block: str, line_no: int, alphabet) -> AtomDef:
    m = _ATOM_HEAD_RE.match(block.strip())
    if m is None:
        raise SpecSyntaxError("malformed atom declaration", line_no)
    body = m.group("body")
    if not body.rstrip().endswith("}"):
        raise SpecSyntaxError("atom declaration missing closing '}'", line_no)
    body = body.rstrip()[:-1]
    rules = []
    default = None
    for clause in filter(None, (c.strip() for c in body.split(";"))):
        if "->" not in clause:
            raise SpecSyntaxError(f"atom rule {clause!r} is missing '->'", line_no)
        lhs, rhs = clause.rsplit("->", 1)
        try:
            value = float(rhs)
        except ValueError:
            raise SpecSyntaxError(f"atom rule value {rhs.strip()!r} is not a number", line_no)
        lhs = lhs.strip()
        if lhs == "default":
            default = value
            continue
        pattern = tuple(lhs.split())
        for sym in pattern:
            if sym != "_" and alphabet and sym not in alphabet:
                raise SpecSyntaxError(f"pattern symbol {sym!r} not in alphabet", line_no)
        rules.append((pattern, value))
    if default is None:
        raise SpecSyntaxError("atom declaration needs a 'default ->' rule", line_no)
    try:
        return AtomDef(
            name=m.group("name"),
            arity=int(m.group("arity")),
            low=float(m.group("low")),
            high=float(m.group("high")),
            rules=tuple(rules),
            default=default,
        )
    except (ValueError, SpecValidationError) as exc:
        raise SpecSyntaxError(str(exc), line_no) from None


def parse_spec_file(text: str, allow_transvars: bool = True) -> SpecDocument:
    """Parse a full specification document (alphabet, atoms, property)."""
    lines = text.splitlines()
    alphabet: Tuple[str, ...] = ()
    atoms = []
    property_text = None

    i = 0
    while i < len(lines):
        raw = lines[i]
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            i += 1
            continue
        if stripped.startswith("alphabet:"):
            alphabet = tuple(stripped[len("alphabet:"):].split())
            if not alphabet:
                raise SpecSyntaxError("alphabet declaration is empty", i + 1)
            if len(set(alphabet)) != len(alphabet):
                raise SpecSyntaxError("alphabet has duplicate symbols", i + 1)
            i += 1
        elif stripped.startswith("atom"):
            block_lines = [stripped]
            start = i
            while "}" not in block_lines[-1]:
                i += 1
                if i >= len(lines):
                    raise SpecSyntaxError("atom declaration missing closing '}'", start + 1)
                block_lines.append(lines[i].split("#", 1)[0].strip())
            atoms.append(_parse_atom_block(" ".join(block_lines), start + 1, set(alphabet)))
            i += 1
        elif stripped.startswith("property:"):
            property_text = stripped[len("property:"):]
            # the property may continue on following lines
            rest = [lines[j].split("#", 1)[0] for j in range(i + 1, len(lines))]
            property_text = "\n".join([property_text] + rest)
            # parsed with blanks in place of all before it, so that every
            # position in an error is the file's
            start = raw.index("property:") + len("property:")
            padded = "\n" * i + " " * start + property_text
            i = len(lines)
        else:
            raise SpecSyntaxError(f"unrecognized directive {stripped.split()[0]!r}", i + 1)

    if not alphabet:
        raise SpecSyntaxError("specification is missing an 'alphabet:' section")
    if property_text is None or not property_text.strip():
        raise SpecSyntaxError("specification is missing a 'property:' section")

    names = [a.name for a in atoms]
    if len(set(names)) != len(names):
        raise SpecSyntaxError("duplicate atom names")

    expr = parse(padded, alphabet, atoms, allow_transvars)
    return SpecDocument(alphabet=alphabet, atoms=tuple(atoms), expression=expr,
                        property_text=property_text.strip())
