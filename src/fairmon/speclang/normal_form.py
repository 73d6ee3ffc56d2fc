"""Polynomial normal form and division decomposition for PSEs.

Any PSE whose reciprocals apply to single transition variables rewrites to a
sum of monomials with integer (possibly negative) exponents.  Collecting the
negative exponents behind one common denominator turns the polynomial into
``phi_a + phi_b / phi_c`` with all three parts division free, which is the
shape the fully-observed monitor consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import SpecValidationError
from .ast import (Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub, TransVar,
                  fold, reject)

VarKey = Tuple[str, str]
Powers = Tuple[Tuple[VarKey, int], ...]


@dataclass(frozen=True)
class Monomial:
    coeff: float
    powers: Powers  # sorted by variable, exponents never zero

    def eval(self, valuation) -> float:
        v = self.coeff
        for var, exp in self.powers:
            v *= valuation[var] ** exp
        return v


@dataclass(frozen=True)
class PolynomialForm:
    """Canonical sum of monomials: merged, zero-free, lexicographically sorted."""

    monomials: Tuple[Monomial, ...]

    def eval(self, valuation) -> float:
        return sum(m.eval(valuation) for m in self.monomials)

    def symbol_size(self) -> int:
        """Written size: one symbol per variable use, coefficient, '*' and '+'.

        An exponent ``d`` counts as ``d`` variable symbols joined by ``d-1``
        products, matching the expanded product form.
        """
        if not self.monomials:
            return 1  # the constant 0
        total = len(self.monomials) - 1  # '+' between monomials
        for m in self.monomials:
            factors = sum(abs(e) for _, e in m.powers)
            if m.coeff != 1.0 or factors == 0:
                factors += 1
            total += factors + (factors - 1)
        return total


def _merge(terms: Dict[Powers, float]) -> PolynomialForm:
    monos = [Monomial(c, p) for p, c in terms.items() if c != 0.0]
    monos.sort(key=lambda m: m.powers)
    return PolynomialForm(tuple(monos))


def _mul_powers(a: Powers, b: Powers) -> Powers:
    acc = dict(a)
    for var, exp in b:
        acc[var] = acc.get(var, 0) + exp
        if acc[var] == 0:
            del acc[var]
    return tuple(sorted(acc.items()))


def _add_terms(left: Dict[Powers, float], right: Dict[Powers, float],
               sign: float) -> Dict[Powers, float]:
    for p, c in right.items():
        left[p] = left.get(p, 0.0) + sign * c
        if left[p] == 0.0:
            del left[p]
    return left


def _mul_terms(_, left: Dict[Powers, float], right: Dict[Powers, float]) -> Dict[Powers, float]:
    out: Dict[Powers, float] = {}
    for pa, ca in left.items():
        for pb, cb in right.items():
            p = _mul_powers(pa, pb)
            out[p] = out.get(p, 0.0) + ca * cb
            if out[p] == 0.0:
                del out[p]
    return out


def _inv_terms(node: Inv, _) -> Dict[Powers, float]:
    child = node.child
    if isinstance(child, TransVar):
        return {(((child.source, child.target), -1),): 1.0}
    if isinstance(child, Const):
        if child.value == 0.0:
            raise SpecValidationError("reciprocal of the constant 0")
        return {(): 1.0 / child.value}
    raise SpecValidationError(
        "unsupported nested division: reciprocals must apply to a "
        "single transition variable")


_not_pse = reject(SpecValidationError, "{node} node is not part of a PSE")

_POLYNOMIAL = {
    Const: lambda n: {(): n.value} if n.value != 0.0 else {},
    TransVar: lambda n: {(((n.source, n.target), 1),): 1.0},
    Atom: _not_pse, SeqProb: _not_pse,
    Add: lambda _, a, b: _add_terms(a, b, 1.0),
    Sub: lambda _, a, b: _add_terms(a, b, -1.0),
    Mul: _mul_terms,
    Inv: _inv_terms,
}


def to_polynomial(expr: Expr) -> PolynomialForm:
    """Rewrite a PSE into polynomial normal form.

    Reciprocals must apply to single transition variables (or constants);
    anything else raises, since nested division has no monomial form.
    """
    return _merge(fold(expr, _POLYNOMIAL))


def polynomial_to_expression(poly: PolynomialForm) -> Expr:
    """Division-free expression tree for a polynomial with nonnegative exponents."""
    if not poly.monomials:
        return Const(0.0)
    terms = []
    for m in poly.monomials:
        factors = []
        for (source, target), exp in m.powers:
            if exp < 0:
                raise SpecValidationError("negative exponent in a division-free polynomial")
            factors.extend(TransVar(source, target) for _ in range(exp))
        if m.coeff != 1.0 or not factors:
            factors.insert(0, Const(m.coeff))
        term = factors[0]
        for f in factors[1:]:
            term = Mul(term, f)
        terms.append(term)
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out


@dataclass(frozen=True)
class DivisionDecomposition:
    """phi == phi_a + phi_b / phi_c wherever phi_c is nonzero; all parts division free."""

    phi_a: Expr
    phi_b: Expr
    phi_c: Expr
    poly_b: PolynomialForm

    @property
    def is_trivial(self) -> bool:
        return not self.poly_b.monomials


def decompose_division(poly: PolynomialForm) -> DivisionDecomposition:
    """Split a polynomial into a division-free part plus one common ratio.

    ``phi_c`` is the least common denominator monomial over all negative
    exponents and ``phi_b`` collects the remaining monomials multiplied out
    against it.
    """
    plain: Dict[Powers, float] = {}
    ratio: Dict[Powers, float] = {}
    denom: Dict[VarKey, int] = {}
    for m in poly.monomials:
        if all(e > 0 for _, e in m.powers):
            plain[m.powers] = plain.get(m.powers, 0.0) + m.coeff
        else:
            ratio[m.powers] = ratio.get(m.powers, 0.0) + m.coeff
            for var, exp in m.powers:
                if exp < 0:
                    denom[var] = max(denom.get(var, 0), -exp)

    lcd = Monomial(1.0, tuple(sorted(denom.items())))
    numer: Dict[Powers, float] = {}
    for p, c in ratio.items():
        lifted = _mul_powers(p, lcd.powers)
        if any(e < 0 for _, e in lifted):
            raise SpecValidationError("denominator is not a monomial of transition variables")
        numer[lifted] = numer.get(lifted, 0.0) + c
    poly_b = _merge(numer)

    return DivisionDecomposition(
        phi_a=polynomial_to_expression(_merge(plain)),
        phi_b=polynomial_to_expression(poly_b),
        phi_c=polynomial_to_expression(PolynomialForm((lcd,))),
        poly_b=poly_b,
    )
