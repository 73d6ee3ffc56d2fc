import math
import random

import pytest

from fairmon.errors import SpecSyntaxError, SpecValidationError
from fairmon.speclang import (Add, AtomDef, Const, Inv, Mul, SeqProb,
                              Sub, TransVar, assign_slots, bse_range,
                              contains_division, count_atoms,
                              decompose_division, eval_pse, expr_range,
                              expression_size, leaves, parse,
                              parse_spec_file, pretty_print, to_polynomial)

ALPHA = ["A", "B", "Y", "N", "1", "2", "3", "4"]


class TestParsing:
    def test_conditional_desugars_to_ratio(self):
        e = parse("P[Y | A] - P[Y | B]", ALPHA)
        expected = Sub(
            Mul(SeqProb((("A", "Y"),)), Inv(SeqProb((("A",),)))),
            Mul(SeqProb((("B", "Y"),)), Inv(SeqProb((("B",),)))),
        )
        assert e == expected

    def test_constant(self):
        assert parse("0.5", []) == Const(0.5)

    def test_transition_product(self):
        e = parse("T[1->2] * T[1->3]", ALPHA)
        assert e == Mul(TransVar("1", "2"), TransVar("1", "3"))

    def test_precedence_and_parens(self):
        e = parse("1 + 2 * 3", [])
        assert e == Add(Const(1.0), Mul(Const(2.0), Const(3.0)))
        e = parse("(1 + 2) * 3", [])
        assert e == Mul(Add(Const(1.0), Const(2.0)), Const(3.0))

    def test_division_sugar(self):
        assert parse("P[A] / P[B]", ALPHA) == Mul(SeqProb((("A",),)), Inv(SeqProb((("B",),))))
        assert parse("1 / P[B]", ALPHA) == Inv(SeqProb((("B",),)))

    def test_unary_minus_folds_literals(self):
        assert parse("-2.5", []) == Const(-2.5)
        assert parse("-P[A]", ALPHA) == Sub(Const(0.0), SeqProb((("A",),)))

    def test_word_sets(self):
        e = parse("P[A Y, B Y]", ALPHA)
        assert e == SeqProb((("A", "Y"), ("B", "Y")))

    def test_syntax_error_position(self):
        with pytest.raises(SpecSyntaxError) as err:
            parse("P[A] +", ALPHA)
        assert "line 1" in str(err.value)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse("P[Q]", ALPHA)

    def test_unknown_atom_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse("F[nope]", ALPHA)

    def test_transvar_rejected_in_partial_mode(self):
        with pytest.raises(SpecSyntaxError):
            parse("T[1->2]", ALPHA, allow_transvars=False)

    def test_atom_arity_mismatch_in_table(self):
        with pytest.raises(SpecValidationError):
            AtomDef("x", 2, 0.0, 1.0, ((("A",), 1.0),), 0.0)

    def test_atom_value_outside_range(self):
        with pytest.raises(SpecValidationError):
            AtomDef("x", 1, 0.0, 1.0, ((("A",), 2.0),), 0.0)


class TestSpecFile:
    SPEC = """
# lending demo
alphabet: A B Y N
atom grant arity 2 range [0,1] { A Y -> 1; default -> 0 }
property: F[grant] - P[Y | B]
"""

    def test_parse_document(self):
        doc = parse_spec_file(self.SPEC)
        assert doc.alphabet == ("A", "B", "Y", "N")
        assert doc.atoms[0].name == "grant"
        assert doc.atoms[0].evaluate(("A", "Y")) == 1.0
        assert doc.atoms[0].evaluate(("B", "Y")) == 0.0
        assert count_atoms(doc.expression) == 3

    def test_wildcard_patterns(self):
        doc = parse_spec_file("""
alphabet: A B Y N
atom anyY arity 2 range [0,1] { _ Y -> 1; default -> 0 }
property: F[anyY]
""")
        atom = doc.atoms[0]
        assert atom.evaluate(("B", "Y")) == 1.0
        assert atom.evaluate(("B", "N")) == 0.0

    def test_first_match_wins(self):
        doc = parse_spec_file("""
alphabet: A B
atom f arity 1 range [0,2] { A -> 2; _ -> 1; default -> 0 }
property: F[f]
""")
        assert doc.atoms[0].evaluate(("A",)) == 2.0
        assert doc.atoms[0].evaluate(("B",)) == 1.0

    def test_missing_sections(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec_file("property: 1")
        with pytest.raises(SpecSyntaxError):
            parse_spec_file("alphabet: a b")

    MULTILINE_ATOM = """alphabet: a b
atom f arity 1 range [0,1] {  # a block over several lines
  a -> 1;  # the rule
  default -> 0
}
"""

    def test_atom_block_over_several_lines(self):
        one_line = "alphabet: a b\natom f arity 1 range [0,1] { a -> 1; default -> 0 }\n"
        doc = parse_spec_file(self.MULTILINE_ATOM + "property: F[f]\n")
        assert doc.atoms == parse_spec_file(one_line + "property: F[f]\n").atoms

    ATOM = "alphabet: a b\natom f arity 1 range [0,1] "

    @pytest.mark.parametrize("text, position", [
        ("alphabet: a b y\n# note\nproperty: P[y | a] $ P[y | b]\n", (3, 20)),
        ("alphabet: a b y\n# note\nproperty: P[y | a] ) P[y | b]\n", (3, 20)),
        ("alphabet: a b\n  property:P[a] + P[c]\n", (2, 21)),
        ("alphabet: a b\nproperty: P[a] +\n  P[c]  # c is not a symbol\n", (3, 5)),
        (MULTILINE_ATOM + "property: F[g]\n", (6, 13)),
        (ATOM + "{ a -> 1;\n  default -> 0\nproperty: F[f]\n", (2, None)),
        ("alphabet: a b\natom f arity one range [0,1] { default -> 0 }\n", (2, None)),
        (ATOM + "{ a 1; default -> 0 }\n", (2, None)),
        (ATOM + "{ a -> one; default -> 0 }\n", (2, None)),
        (ATOM + "{ c -> 1; default -> 0 }\n", (2, None)),
        (ATOM + "{ a -> 1 }\n", (2, None)),
        (ATOM + "{ a -> 2; default -> 0 }\n", (2, None)),
        ("# empty\nalphabet:\nproperty: 1\n", (2, None)),
        ("alphabet: a b a\nproperty: 1\n", (1, None)),
        ("alphabet: a b\nproperties: 1\n", (2, None)),
    ], ids=["bad-character", "trailing-input", "indented-property", "second-line",
            "after-multiline-atom", "no-closing-brace", "malformed-head", "no-arrow",
            "value-not-number", "pattern-outside-alphabet", "no-default",
            "value-outside-range", "empty-alphabet", "duplicate-symbols",
            "unrecognized-directive"])
    def test_error_position_is_the_files(self, text, position):
        with pytest.raises(SpecSyntaxError) as err:
            parse_spec_file(text)
        assert (err.value.line, err.value.column) == position


def _random_pse(rng, size):
    """Random PSE with `size` operators; reciprocals only on variables."""
    variables = [TransVar("1", str(t)) for t in ("2", "3", "4")]

    def leaf():
        if rng.random() < 0.25:
            return Const(round(rng.uniform(0.2, 3.0), 3))
        return rng.choice(variables)

    expr = leaf()
    for _ in range(size):
        op = rng.random()
        if op < 0.35:
            expr = Add(expr, leaf())
        elif op < 0.6:
            expr = Sub(leaf(), expr)
        elif op < 0.85:
            expr = Mul(expr, leaf())
        else:
            expr = Add(expr, Inv(rng.choice(variables)))
    return expr


def _random_bse(rng, size):
    atoms = [SeqProb((("A", "Y"),)), SeqProb((("B",),)), SeqProb((("A",), ("B", "Y")))]

    def leaf():
        if rng.random() < 0.3:
            return Const(round(rng.uniform(0.1, 2.0), 3))
        return rng.choice(atoms)

    expr = leaf()
    for _ in range(size):
        op = rng.random()
        if op < 0.3:
            expr = Add(expr, leaf())
        elif op < 0.55:
            expr = Sub(expr, leaf())
        elif op < 0.8:
            expr = Mul(leaf(), expr)
        else:
            expr = Inv(expr)
    return expr


class TestRoundTrip:
    def test_parse_pretty_print_is_identity(self):
        rng = random.Random(7)
        for _ in range(300):
            e = _random_pse(rng, rng.randint(0, 8))
            text = pretty_print(e)
            assert parse(text, ALPHA) == e, text
        for _ in range(300):
            e = _random_bse(rng, rng.randint(0, 8))
            text = pretty_print(e)
            assert parse(text, ALPHA) == e, text

    def test_conditional_round_trip(self):
        e = parse("P[Y | A] - P[Y | B]", ALPHA)
        assert parse(pretty_print(e), ALPHA) == e

    def test_explicit_one_times_inverse(self):
        e = Mul(Const(1.0), Inv(TransVar("1", "2")))
        assert parse(pretty_print(e), ALPHA) == e


class TestLabeling:
    # an occurrence is its index in leaves(expr); the slot layout keys on it
    def test_duplicate_occurrences_get_distinct_labels(self):
        e = parse("T[1->2] + T[1->2]", ALPHA)
        assert list(assign_slots(e).slots) == [0, 1]

    def test_occurrence_index_is_position_in_leaves(self):
        e = parse("T[1->2] * T[1->3]", ALPHA)
        occ = leaves(e)
        assert [occ[i] for i in assign_slots(e).slots] == [TransVar("1", "2"),
                                                          TransVar("1", "3")]

    def test_single_variable_identity(self):
        e = parse("T[1->2]", ALPHA)
        assert assign_slots(e).slots == {0: ("1", 1)}

    def test_label_count_matches_occurrences(self):
        e = parse("T[1->2] * T[1->2] * T[1->3] + T[1->2]", ALPHA)
        layout = assign_slots(e)
        assert len(layout.slots) == count_atoms(e) == 4
        # the three factors of the product read three distinct visits
        assert len({layout.slots[i] for i in range(3)}) == 3


class TestPolynomial:
    def test_product_of_sums_expands(self):
        e = parse("(T[1->2] + T[1->3]) * (T[2->3] + T[2->4])", ALPHA)
        poly = to_polynomial(e)
        assert len(poly.monomials) == 4
        assert all(m.coeff == 1.0 for m in poly.monomials)

    def test_constant_scaling(self):
        poly = to_polynomial(parse("2 * T[1->2]", ALPHA))
        assert len(poly.monomials) == 1
        assert poly.monomials[0].coeff == 2.0

    def test_reciprocal_variable(self):
        poly = to_polynomial(parse("T[1->2] + 1 / T[1->3]", ALPHA))
        powers = sorted(m.powers for m in poly.monomials)
        assert powers == [((("1", "2"), 1),), ((("1", "3"), -1),)]

    def test_monomials_merge(self):
        poly = to_polynomial(parse("T[1->2] + T[1->2]", ALPHA))
        assert len(poly.monomials) == 1
        assert poly.monomials[0].coeff == 2.0

    def test_cancellation_drops_zero_coefficients(self):
        poly = to_polynomial(parse("T[1->2] - T[1->2]", ALPHA))
        assert poly.monomials == ()

    def test_nested_division_rejected(self):
        with pytest.raises(SpecValidationError):
            to_polynomial(parse("1 / (T[1->2] + T[1->3])", ALPHA))

    def test_equivalence_on_random_pses(self):
        # 1000 random PSEs of size <= 8 against random valuations
        rng = random.Random(3)
        variables = [("1", t) for t in ("2", "3", "4")]
        for _ in range(1000):
            e = _random_pse(rng, rng.randint(0, 8))
            poly = to_polynomial(e)
            val = {v: rng.uniform(0.05, 0.95) for v in variables}
            assert eval_pse(e, val) == pytest.approx(poly.eval(val), abs=1e-9)

    def test_size_law_product_of_pair_sums(self):
        # product over i of (q_{2i} + q_{2i+1}): 2^m monomials; the written
        # size at m=2 is 15
        for m in range(1, 5):
            expr = None
            for i in range(m):
                pair = Add(TransVar("1", f"v{2*i}"), TransVar("1", f"v{2*i+1}"))
                expr = pair if expr is None else Mul(expr, pair)
            poly = to_polynomial(expr)
            assert len(poly.monomials) == 2**m
            assert poly.symbol_size() == 2 ** (m + 1) * m - 1
        assert 2**3 * 2 - 1 == 15


class TestDivisionDecomposition:
    def test_mixed_expression(self):
        dd = decompose_division(to_polynomial(parse("T[1->2] + 1 / T[1->3]", ALPHA)))
        assert dd.phi_a == TransVar("1", "2")
        assert dd.phi_b == Const(1.0)
        assert dd.phi_c == TransVar("1", "3")

    def test_division_free_input_is_trivial(self):
        dd = decompose_division(to_polynomial(parse("T[1->2] + T[1->3]", ALPHA)))
        assert dd.is_trivial
        assert dd.phi_b == Const(0.0)
        assert dd.phi_c == Const(1.0)
        assert eval_pse(dd.phi_a, {("1", "2"): 0.3, ("1", "3"): 0.5}) == pytest.approx(0.8)

    def test_common_denominator(self):
        e = parse("T[1->2] / T[1->4] + T[1->3] / T[1->4]", ALPHA)
        dd = decompose_division(to_polynomial(e))
        assert dd.phi_a == Const(0.0)
        assert dd.phi_c == TransVar("1", "4")
        val = {("1", "2"): 0.2, ("1", "3"): 0.3, ("1", "4"): 0.4}
        assert eval_pse(dd.phi_b, val) == pytest.approx(0.5)

    def test_equivalence_on_random_valuations(self):
        rng = random.Random(5)
        variables = [("1", t) for t in ("2", "3", "4")]
        for _ in range(400):
            e = _random_pse(rng, rng.randint(0, 6))
            dd = decompose_division(to_polynomial(e))
            val = {v: rng.uniform(0.05, 0.95) for v in variables}
            denom = eval_pse(dd.phi_c, val)
            if abs(denom) < 0.05:
                continue
            recombined = eval_pse(dd.phi_a, val) + eval_pse(dd.phi_b, val) / denom
            assert eval_pse(e, val) == pytest.approx(recombined, abs=1e-9)

    def test_disparate_impact_shape(self):
        e = parse("T[g->gy] / T[gbar->gbary]", ["g", "gbar", "gy", "gbary"])
        dd = decompose_division(to_polynomial(e))
        assert dd.phi_a == Const(0.0)
        assert dd.phi_b == TransVar("g", "gy")
        assert dd.phi_c == TransVar("gbar", "gbary")


class TestRanges:
    def test_exclusive_sum_single_slot(self):
        rng = expr_range(parse("T[1->2] + T[1->3]", ALPHA))
        assert (rng.lo, rng.hi) == (0.0, 1.0)

    def test_product_two_slots(self):
        rng = expr_range(parse("T[1->2] * T[1->3]", ALPHA))
        assert (rng.lo, rng.hi) == (0.0, 1.0)

    def test_constant(self):
        rng = expr_range(Const(0.5))
        assert (rng.lo, rng.hi) == (0.5, 0.5)

    def test_weighted_sum(self):
        e = parse("1 * T[1->2] + 2 * T[1->3] - 3 * T[1->4]", ALPHA)
        rng = expr_range(e)
        assert (rng.lo, rng.hi) == (-3.0, 2.0)

    def test_every_assignment_stays_inside_and_endpoints_attained(self):
        rng_ = random.Random(13)
        import itertools
        from fairmon.speclang.ranges import TOP, _eval_assignment
        for _ in range(60):
            e = _random_pse(rng_, rng_.randint(0, 5))
            if contains_division(e):
                continue
            layout = assign_slots(e)
            iv = expr_range(e)
            slots = layout.draw_slots
            if not slots or len(slots) > 8:
                continue
            domains = [layout.targets[s] + (TOP,) for s, _ in slots]
            values = []
            for combo in itertools.product(*domains):
                v = _eval_assignment(e, layout, dict(zip(slots, combo)))
                assert iv.lo - 1e-12 <= v <= iv.hi + 1e-12
                values.append(v)
            assert min(values) == pytest.approx(iv.lo)
            assert max(values) == pytest.approx(iv.hi)

    def test_slot_cap_falls_back_to_interval_arithmetic(self):
        e = None
        for i in range(20):
            term = TransVar("1", str(i + 2))
            e = term if e is None else Mul(e, term)
        iv = expr_range(e, slot_limit=16)
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_dependent_product_shifts_left_nested(self):
        e = parse("T[1->2] * T[1->2] * T[1->2]", ALPHA)
        layout = assign_slots(e)
        assert sorted(layout.slots.values()) == [("1", 1), ("1", 2), ("1", 3)]
        assert layout.demand == {"1": 3}

    def test_independent_product_shares_no_shift(self):
        e = parse("T[1->2] * T[2->3]", ALPHA)
        layout = assign_slots(e)
        assert sorted(layout.slots.values()) == [("1", 1), ("2", 1)]

    def test_bse_range_conditional_refinement(self):
        e = parse("P[Y | A] - P[Y | B]", ALPHA)
        iv = bse_range(e)
        assert (iv.lo, iv.hi) == (-1.0, 1.0)

    def test_bse_range_plain_ratio_is_unbounded(self):
        # the denominator range [0,1] touches zero, and any interval
        # containing zero inverts to the unbounded interval
        e = parse("P[A] / P[B]", ALPHA)
        iv = bse_range(e)
        assert math.isinf(iv.lo) and math.isinf(iv.hi)


class TestCounting:
    def test_conditional_difference_has_four_leaves(self):
        assert count_atoms(parse("P[Y | A] - P[Y | B]", ALPHA)) == 4

    def test_constant_has_none(self):
        assert count_atoms(Const(1.0)) == 0

    def test_single_atom(self):
        assert count_atoms(parse("P[A]", ALPHA)) == 1

    def test_expression_size_counts_operators(self):
        assert expression_size(parse("T[1->2] - T[1->3]", ALPHA)) == 1
        social = " + ".join(f"{i} * T[1->{i % 3 + 2}]" for i in range(10))
        assert expression_size(parse(social, ALPHA)) == 19
