"""Specification language: syntax trees, parser, normal forms and ranges.

Every evaluation of a tree goes through ``fold(expr, algebra)``; a variable
occurrence is identified by its index in ``leaves(expr)``.
"""

from .ast import (Add, Atom, AtomDef, Const, Expr, Inv, Mul, SeqProb, Sub,
                  TransVar, contains_division, count_atoms, eval_pse,
                  expression_size, fold, is_pse, leaves, pretty_print)
from .normal_form import (DivisionDecomposition, Monomial, PolynomialForm,
                          decompose_division, polynomial_to_expression,
                          to_polynomial)
from .parser import SpecDocument, parse, parse_spec_file
from .ranges import SlotLayout, assign_slots, bse_range, expr_range

__all__ = [
    "Add", "Atom", "AtomDef", "Const", "Expr", "Inv", "Mul", "SeqProb",
    "Sub", "TransVar", "contains_division", "count_atoms", "eval_pse",
    "expression_size", "fold", "is_pse", "leaves", "pretty_print",
    "DivisionDecomposition", "Monomial", "PolynomialForm",
    "decompose_division", "polynomial_to_expression", "to_polynomial",
    "SpecDocument", "parse", "parse_spec_file",
    "SlotLayout", "assign_slots", "bse_range", "expr_range",
]
