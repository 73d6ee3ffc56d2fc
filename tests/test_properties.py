"""Property tests for the algebras that ``fold`` evaluates expressions in."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmon.mc import MCMonitorDivFree
from fairmon.speclang import (Add, Atom, AtomDef, Const, Inv, Mul, SeqProb,
                              Sub, TransVar, bse_range, decompose_division,
                              eval_pse, expr_range, parse, pretty_print,
                              to_polynomial)

ALPHA = ["A", "B", "Y", "1", "2", "3", "4"]
STATES = ["1", "2", "3", "4"]
ATOM = AtomDef("f", 2, 0.0, 2.0, ((("A", "_"), 2.0),), 0.0)
VARIABLES = [TransVar(s, t) for s in ("1", "2") for t in ("2", "3", "4") if s != t]

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

consts = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False).map(Const)
transvars = st.sampled_from(VARIABLES)
words = st.lists(st.sampled_from(["A", "B", "Y"]), min_size=1, max_size=3).map(tuple)
seqprobs = st.lists(words, min_size=1, max_size=2).map(lambda ws: SeqProb(tuple(ws)))


def trees(leaf, binary=(Add, Sub, Mul), inverse=True, max_leaves=8):
    def extend(children):
        options = [st.builds(op, children, children) for op in binary]
        if inverse:
            options.append(st.builds(Inv, children))
        return st.one_of(options)

    return st.recursive(leaf, extend, max_leaves=max_leaves)


any_expr = trees(st.one_of(consts, transvars, seqprobs, st.just(Atom(ATOM))))
# reciprocals only on variables: the shape the normal form accepts
normal_pse = trees(st.one_of(consts, transvars, transvars.map(Inv)), inverse=False)
division_free_pse = trees(st.one_of(consts, transvars), inverse=False, max_leaves=6)
valuations = st.fixed_dictionaries(
    {(v.source, v.target): st.floats(min_value=0.05, max_value=0.95) for v in VARIABLES})


@PROPERTY
@given(any_expr)
def test_parse_inverts_pretty_print(e):
    text = pretty_print(e)
    assert parse(text, ALPHA, atoms=[ATOM]) == e, text


def _tolerance(poly, valuation) -> float:
    # rounding in the expanded form scales with its largest monomial
    return 1e-9 * (1.0 + sum(abs(m.eval(valuation)) for m in poly.monomials))


@PROPERTY
@given(normal_pse, valuations)
def test_normal_form_agrees_with_eval_pse(e, valuation):
    poly = to_polynomial(e)
    expected = eval_pse(e, valuation)
    assert poly.eval(valuation) == pytest.approx(expected, abs=_tolerance(poly, valuation))

    dd = decompose_division(poly)
    denom = eval_pse(dd.phi_c, valuation)
    recombined = eval_pse(dd.phi_a, valuation) + eval_pse(dd.phi_b, valuation) / denom
    assert recombined == pytest.approx(expected, abs=_tolerance(poly, valuation))


@PROPERTY
@given(division_free_pse, st.lists(st.sampled_from(STATES), min_size=2, max_size=300),
       st.integers(min_value=0, max_value=2**16))
def test_expr_range_encloses_every_round_outcome(e, stream, seed):
    iv = expr_range(e)
    enclosure = bse_range(e)
    assert enclosure.lo <= iv.lo and iv.hi <= enclosure.hi

    mon = MCMonitorDivFree(e, 0.05, "pointwise", seed=seed)
    evaluate = mon._eval
    outcomes = []

    def recording_eval():
        w = evaluate()
        if w is not None:
            outcomes.append(w)
        return w

    mon._eval = recording_eval
    mon.feed(stream)
    assert len(outcomes) == mon.n_samples
    assert all(iv.lo <= w <= iv.hi for w in outcomes), (iv, outcomes)
