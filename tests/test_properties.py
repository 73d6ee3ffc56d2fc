"""Property tests for the algebras that ``fold`` evaluates expressions in,
for interval arithmetic, and for the chain-structure checks against
reference implementations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from fairmon.errors import ModelError
from fairmon.intervals import UNBOUNDED, Interval
from fairmon.markov import ObservationModel
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


@st.composite
def chains(draw):
    """Row-stochastic chains of 1-8 states with random support."""
    k = draw(st.integers(min_value=1, max_value=8))
    # edges mostly lead from one of d cyclic classes to the next, so that
    # periodic chains come up as well as aperiodic ones
    d = draw(st.integers(min_value=1, max_value=k))
    cls = np.array(draw(st.lists(st.integers(min_value=0, max_value=d - 1),
                                 min_size=k, max_size=k)))
    rows = st.lists(st.booleans(), min_size=k, max_size=k)
    mask = np.array(draw(st.lists(rows, min_size=k, max_size=k)), dtype=bool)
    mask &= (cls[:, None] + 1) % d == cls[None, :]
    for i in range(k):
        if not mask[i].any():
            mask[i, draw(st.integers(min_value=0, max_value=k - 1))] = True
    states = tuple(str(i) for i in range(k))
    return ObservationModel(states, mask / mask.sum(axis=1, keepdims=True),
                            np.eye(k)[0], {s: s for s in states})


def reference_period(m: np.ndarray) -> int:
    """Depth-first levels from state 0; gcd of level[u] + 1 - level[v] over edges."""
    k = len(m)
    level = [-1] * k
    level[0] = 0
    queue = [0]
    g = 0
    adj = [np.nonzero(m[i] > 0)[0] for i in range(k)]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            v = int(v)
            if level[v] < 0:
                level[v] = level[u] + 1
                queue.append(v)
            else:
                g = math.gcd(g, level[u] + 1 - level[v])
    return abs(g) if g else 0


@settings(max_examples=600, deadline=None, derandomize=True)
@given(chains())
def test_chain_structure_matches_references(model):
    n_components, _ = connected_components(model.transitions > 0, directed=True,
                                           connection="strong")
    assert model.is_irreducible() == (n_components == 1)
    if n_components == 1:
        assert model.period() == reference_period(model.transitions)
    else:
        with pytest.raises(ModelError):
            model.period()


finite = st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False)


@st.composite
def operands(draw):
    """An interval and one of its members, either endpoint included."""
    a, b = draw(finite), draw(finite)
    iv = Interval(min(a, b), max(a, b))
    return iv, draw(st.one_of(st.just(iv.lo), st.just(iv.hi), st.floats(iv.lo, iv.hi)))


@PROPERTY
@given(operands(), operands())
@example((Interval(5.0, 5.0), 5.0), (Interval(3.0, 3.0), 3.0))
@example((Interval(-1.0, 2.0), 2.0), (Interval(-0.5, 0.25), 0.25))
@example((Interval(0.0, 0.0), 0.0), (Interval(0.0, 1.0), 1.0))
def test_interval_operations_enclose_sampled_points(a, b):
    (xs, x), (ys, y) = a, b
    assert (xs + ys).contains(x + y)
    assert (xs - ys).contains(x - y)
    assert (xs * ys).contains(x * y)
    if ys.contains(0.0):
        assert ys.inverse() == UNBOUNDED
        # zero divided by anything is zero, so only the point 0 stays bounded
        zero = Interval.point(0.0)
        assert xs / ys == (zero if xs == zero else UNBOUNDED)
    else:
        assert ys.inverse().contains(1.0 / y)
        # a / b means a * (1 / b); the rounded quotient x / y itself can lie
        # one unit in the last place outside, as for 5 / 3
        assert (xs / ys).contains(x * (1.0 / y))
