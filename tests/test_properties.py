"""Property tests for the algebras that ``fold`` evaluates expressions in,
for interval arithmetic, and for the chain-structure checks against
reference implementations."""

import math
import operator
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from fairmon.bounds import (ci_mc_pointwise, ci_mc_uniform, ci_pomc_pointwise,
                            ci_pomc_uniform, split_delta)
from fairmon.errors import ModelError
from fairmon.intervals import UNBOUNDED, Interval, product, reciprocal
from fairmon.markov import ObservationModel
from fairmon.mc import MCMonitorDivFree, build_mc_monitor
from fairmon.pomc import INCONCLUSIVE, Verdict, atom_window, build_pomc_monitor
from fairmon.speclang import (Add, Atom, AtomDef, Const, Inv, Mul, SeqProb,
                              Sub, TransVar, assign_slots, bse_range,
                              decompose_division, eval_pse, expr_range, parse,
                              pretty_print, to_polynomial)
from fairmon.speclang.ast import contains_division, fold, leaves

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


def corners_reference(alo, ahi, blo, bhi):
    """The corner rule as ``Interval.__mul__`` and ``DivisionMonitor._combine``
    each wrote it before they shared ``product``."""
    def prod(a, b):
        if a == 0.0 or b == 0.0:
            return 0.0
        return a * b
    ps = (prod(alo, blo), prod(alo, bhi), prod(ahi, blo), prod(ahi, bhi))
    return min(ps), max(ps)


def reciprocal_reference(lo, hi):
    if lo <= 0.0 <= hi:
        return -math.inf, math.inf
    return 1.0 / hi, 1.0 / lo


any_float = st.floats(allow_nan=False)


@PROPERTY
@given(any_float, any_float, any_float, any_float)
@example(0.0, math.inf, -math.inf, -0.0)  # 0 * inf on every corner
@example(-math.inf, math.inf, 0.0, 0.0)
@example(-0.0, 0.0, -math.inf, math.inf)
@example(-math.inf, -2.0, 2.0, math.inf)  # reciprocals -0.0 and 0.0
# corners -0.0 (an underflow) and 0.0 (the zero rule or an underflow) tie,
# so the corner order shows in the sign of a zero endpoint
@example(-1e-200, 0.0, 1e-200, 1.0)
@example(-1e-200, 1e-200, 1e-200, 1e-200)
def test_product_and_reciprocal_match_the_formulas_bit_for_bit(alo, ahi, blo, bhi):
    def bits(pair):
        return struct.pack("<2d", *pair)

    assert bits(product(alo, ahi, blo, bhi)) == bits(corners_reference(alo, ahi, blo, bhi))
    for lo, hi in ((alo, ahi), (blo, bhi)):
        lo, hi = min(lo, hi), max(lo, hi)
        assert bits(reciprocal(lo, hi)) == bits(reciprocal_reference(lo, hi))


# --- the pomc monitor's compiled plan against the expression-tree fold ---

POMC_ALPHA = ["a", "b", "c"]
TABLE = AtomDef("tab", 2, -1.0, 2.0, ((("a", "_"), 2.0), (("_", "b"), -1.0),
                                      (("c", "c"), 0.5)), 0.25)
# an unbounded atom whose value can be inf
INF_ATOM = AtomDef("u", 1, 0.0, math.inf, ((("a",), math.inf),), 0.0)
pomc_leaves = st.one_of(
    st.one_of(st.sampled_from([0.0, -0.0, 1e200, -1e200, math.inf, -math.inf]),
              st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)).map(Const),
    st.lists(st.lists(st.sampled_from(POMC_ALPHA), min_size=1, max_size=3).map(tuple),
             min_size=1, max_size=2).map(lambda ws: SeqProb(tuple(ws))),
    st.just(Atom(TABLE)))


def pomc_exprs(depth: int):
    """Expressions of operator depth at most ``depth``; ``a / b`` as ``a * (1/b)``."""
    if depth == 0:
        return pomc_leaves
    sub = pomc_exprs(depth - 1)
    return st.one_of(pomc_leaves, *(st.builds(op, sub, sub) for op in (Add, Sub, Mul)),
                     st.builds(lambda a, b: Mul(a, Inv(b)), sub, sub))


def _finite_point(a, b, op):
    v = None if a is None or b is None else op(a, b)
    return v if v is not None and math.isfinite(v) else None


def reference_pomc(expr, delta, mode, stream, intersect):
    """``t lo hi point kind`` lines of the tree-fold monitor: each atom's clipped
    ``Interval`` and mean, folded through the tree with ``Interval`` arithmetic."""
    ci = {"pointwise": ci_pomc_pointwise, "uniform": ci_pomc_uniform}[mode]
    atoms = leaves(expr)
    shares = split_delta(delta, expr).shares() if atoms else []
    recs = [[*atom_window(leaf), share, 0.0] for leaf, share in zip(atoms, shares)]
    width = max((r[1] for r in recs), default=1)
    rng = bse_range(expr)
    algebra = {
        Atom: lambda _: next(values), SeqProb: lambda _: next(values),
        Const: lambda n: (Interval.point(n.value), n.value),
        Add: lambda _, a, b: (a[0] + b[0], _finite_point(a[1], b[1], operator.add)),
        Sub: lambda _, a, b: (a[0] - b[0], _finite_point(a[1], b[1], operator.sub)),
        Mul: lambda _, a, b: (a[0] * b[0], _finite_point(a[1], b[1], operator.mul)),
        Inv: lambda _, c: (c[0].inverse(), None if c[1] is None or c[1] == 0.0 else 1.0 / c[1]),
    }
    window, running, consistent = (), None, True
    for t, s in enumerate(stream, start=1):
        window = (window + (s,))[-width:]
        vals = []
        for r in recs:
            fn, n, low, high, share, mean = r
            if t < n:
                continue
            mean = r[5] = min(max((mean * (t - n) + fn(window[-n:])) / (t - (n - 1)), low), high)
            if t >= width:
                eps = ci(share, t, n, low, high, 1.0)
                vals.append((Interval(max(mean - eps, low), min(mean + eps, high)), mean))
        if t < width:
            yield f"{t} None None None inconclusive"
            continue
        values = iter(vals)
        interval, point = fold(expr, algebra)
        clipped = interval.intersect(rng)
        if intersect:
            running = running or clipped
            consistent &= running.lo <= clipped.hi and clipped.lo <= running.hi
            if not consistent:
                yield f"{t} None None {point!r} inconsistent"
                continue
            clipped = running = running.intersect(clipped)
        kind = "ok" if clipped.is_bounded else "unbounded"
        yield f"{t} {clipped.lo!r} {clipped.hi!r} {point!r} {kind}"


def _lines(make_lines):
    """The lines made, and the type of the exception that ended them, if any."""
    out = []
    try:
        for line in make_lines():
            out.append(line)
    except Exception as exc:  # compared by type below
        return out, type(exc)
    return out, None


def _monitor_lines(expr, delta, mode, stream, intersect):
    mon = build_pomc_monitor(expr, delta, mode, 1.0, alphabet=POMC_ALPHA,
                             intersect_verdicts=intersect)
    for t, s in enumerate(stream, start=1):
        v = mon.next(s)
        lo, hi = (None, None) if v.interval is None else (v.interval.lo, v.interval.hi)
        yield f"{t} {lo!r} {hi!r} {v.point!r} {v.kind}"


@PROPERTY
@given(pomc_exprs(4), st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=2**16), st.sampled_from([0.05, 0.5, 0.9]))
@example(Add(Mul(SeqProb((("a",),)), Inv(SeqProb((("b",),)))), Const(0.0)), 120, 0, 0.9)
# raises when the monitor is built, on the atom's inf - inf, and on the plan's inf - inf
@example(Sub(Mul(Const(1e200), Const(1e200)), Mul(Const(1e200), Const(1e200))), 5, 0, 0.5)
@example(Add(Atom(INF_ATOM), SeqProb((("b",),))), 300, 0, 0.9)
@example(Sub(Mul(Const(math.inf), SeqProb((("a",),))), Mul(Const(math.inf), SeqProb((("a",),)))),
         300, 0, 0.9)
# [0, 1e-200] * [-1e-200, 1] and [-1e-200, 0] * [1e-200, 1]: corners 0.0 and -0.0
# tie, so the order of the min, and of the max, decides the sign of the zero
@example(Mul(Mul(Const(1e-200), SeqProb((("a",),))), Sub(SeqProb((("b",),)), Const(1e-200))),
         5, 0, 0.05)
@example(Mul(Mul(Const(-1e-200), SeqProb((("a",),))), Add(SeqProb((("b",),)), Const(1e-200))),
         5, 0, 0.05)
# an interval of two underflowed corners, [-0.0, -0.0], inside the range [0.0, 0.0]:
# the operand order of the final clip decides the sign of both zeros
@example(Mul(Mul(SeqProb((("a",),)), Const(1e-200)), Const(-1e-200)), 300, 0, 0.9)
def test_pomc_plan_matches_tree_fold(e, length, seed, delta):
    """Every bit of every verdict (repr of floats, so -0.0 and NaN count) in all
    three modes, and the same exception type where the fold raises."""
    rnd = random.Random(seed)
    stream = [rnd.choice(POMC_ALPHA) for _ in range(length)]
    for mode, intersect in (("pointwise", False), ("uniform", False), ("uniform", True)):
        expected = _lines(lambda: reference_pomc(e, delta, mode, stream, intersect))
        got = _lines(lambda: _monitor_lines(e, delta, mode, stream, intersect))
        assert got == expected, (pretty_print(e), mode, intersect)


# --- the integer-coded mc engine against the dict-keyed engine it replaced ---

class _RefPool:
    """Philox uniforms, handed out one numpy scalar at a time."""

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.Philox(seed))
        self._buf = self._gen.random(1024)
        self._i = 0

    def random(self):
        i = self._i
        if i >= 1024:
            self._buf = self._gen.random(1024)
            i = 0
        self._i = i + 1
        return self._buf[i]


class RefDivFree:
    """The division-free monitor with counters in dicts keyed by state names
    and (source, target) tuples, read through a postfix program."""

    def __init__(self, expr, delta, mode, seed=0):
        layout = assign_slots(expr)
        self._prog, self._vars = [], []

        def var(node):
            self._vars.append((node.source, node.target, layout.slots[len(self._vars)][1]))
            self._prog.append(("var", len(self._vars) - 1))

        fold(expr, {Const: lambda n: self._prog.append(("const", n.value)), TransVar: var,
                    Add: lambda *_: self._prog.append((operator.add, 0)),
                    Sub: lambda *_: self._prog.append((operator.sub, 0)),
                    Mul: lambda *_: self._prog.append((operator.mul, 0))})
        self.value_range = expr_range(expr)
        self.sigma_sq = self.value_range.width ** 2
        self._delta = delta
        self._ci = {"pointwise": ci_mc_pointwise, "uniform": ci_mc_uniform}[mode]
        self._rng = _RefPool(seed)
        self._c = {src: 0 for src in layout.targets}
        self._cij = {(src, tgt): 0 for src, tgts in layout.targets.items() for tgt in tgts}
        self._targets = {src: list(tgts) for src, tgts in layout.targets.items()}
        self._z = {src: [] for src in layout.targets}
        self._cache = [None] * len(self._vars)
        self._prev = self._blocked = None
        self.n_samples, self.mean, self.peak_buffer = 0, 0.0, 0
        self._verdict = INCONCLUSIVE

    def register_count(self):
        buf = sum(len(z) for z in self._z.values())
        return len(self._c) + len(self._cij) + buf + len(self._cache) + 5

    def _extract(self, source, upto):
        z, ci = self._z[source], self._c[source]
        while len(z) < upto and ci > 0:
            u = self._rng.random() * ci
            acc, pick = 0.0, "TOP"
            for tgt in self._targets[source]:
                acc += self._cij[(source, tgt)]
                if u < acc:
                    pick = tgt
                    break
            ci -= 1
            if pick != "TOP":
                self._cij[(source, pick)] -= 1
            z.append(pick)
        self._c[source] = ci
        self.peak_buffer = max(self.peak_buffer, len(z))

    def _eval(self):
        stack = []
        for op, arg in self._prog:
            if op == "var":
                v = self._cache[arg]
                if v is None:
                    source, target, slot = self._vars[arg]
                    z = self._z[source]
                    if len(z) < slot:
                        self._extract(source, slot)
                    if len(z) >= slot:
                        v = self._cache[arg] = 1.0 if z[slot - 1] == target else 0.0
                    else:
                        self._blocked = source
                stack.append(v)
            elif op == "const":
                stack.append(arg)
            else:
                b, a = stack.pop(), stack.pop()
                stack.append(None if a is None or b is None else op(a, b))
        return stack[0]

    def next(self, symbol):
        prev, self._prev = self._prev, symbol
        if prev is None:
            return self._verdict
        if prev in self._c:
            self._c[prev] += 1
            if (prev, symbol) in self._cij:
                self._cij[(prev, symbol)] += 1
            if self._blocked == prev:
                self._blocked = None
        if self._blocked is None:
            w = self._eval()
            if w is not None:
                n = self.n_samples = self.n_samples + 1
                lo, hi = self.value_range.lo, self.value_range.hi
                mu = self.mean = min(max((self.mean * (n - 1) + w) / n, lo), hi)
                eps = self._ci(n, self._delta, self.sigma_sq)
                self._verdict = Verdict(Interval(max(mu - eps, lo), min(mu + eps, hi)), mu)
                for z in self._z.values():
                    z.clear()
                self._cache = [None] * len(self._cache)
                self._blocked = None
        return self._verdict


class RefDivision:
    """``phi_a + phi_b / phi_c`` recombined with ``Interval`` arithmetic on
    every event, with a monitor for each part, constants too.  The summary
    leaves constant parts out of the means and the register count."""

    def __init__(self, parts, delta, mode, seed=0):
        self._all = [RefDivFree(part, delta / 3.0, mode, seed=seed * 3 + k)
                     for k, part in enumerate(parts)]
        self._subs = [m for m, part in zip(self._all, parts) if not isinstance(part, Const)]
        ra, rb, rc = (m.value_range for m in self._all)
        self._range = ra + rb / rc

    n_samples = property(lambda self: min(m.n_samples for m in self._all))
    peak_buffer = property(lambda self: max(m.peak_buffer for m in self._all))

    def register_count(self):
        return sum(m.register_count() for m in self._subs)

    def next(self, symbol):
        va, vb, vc = [m.next(symbol) for m in self._all]
        if any(v.is_inconclusive for v in (va, vb, vc)):
            return INCONCLUSIVE
        interval = (va.interval + vb.interval / vc.interval).intersect(self._range)
        point = va.point + vb.point / vc.point if vc.point != 0.0 else None
        return Verdict(interval, point)


def reference_mc(expr, delta, mode, seed):
    if not contains_division(expr):
        return RefDivFree(expr, delta, mode, seed)
    dd = decompose_division(to_polynomial(expr))
    if dd.is_trivial:
        return RefDivFree(dd.phi_a, delta, mode, seed)
    return RefDivision((dd.phi_a, dd.phi_b, dd.phi_c), delta, mode, seed)


def _mc_lines(make_monitor, stream):
    mon = make_monitor()
    for t, s in enumerate(stream, start=1):
        v = mon.next(s)
        lo, hi = (None, None) if v.interval is None else (v.interval.lo, v.interval.hi)
        yield f"{t} {lo!r} {hi!r} {v.point!r} {v.kind}"
    means = [m.mean for m in getattr(mon, "_subs", [mon])]
    yield f"{mon.n_samples} {means!r} {mon.peak_buffer} {mon.register_count()}"


# a + b / T[..]: the shape that the normal form splits into three parts
ratio_pse = st.builds(lambda a, b, v: Add(a, Mul(b, Inv(v))),
                      division_free_pse, division_free_pse, transvars)


@PROPERTY
@given(st.one_of(division_free_pse, ratio_pse),
       st.lists(st.sampled_from(STATES + ["5"]), min_size=2, max_size=300),
       st.integers(min_value=0, max_value=2**16), st.sampled_from([0.05, 0.5]))
# a point range whose running mean is 0.0 where the range is [-0.0, -0.0]
@example(Mul(TransVar("1", "2"), Const(-0.0)), ["1", "2", "1", "3"] * 5, 0, 0.05)
@example(Add(Const(0.0), Mul(TransVar("1", "2"), Inv(TransVar("1", "3")))),
         ["1", "2", "1", "3", "1", "4"] * 30, 1, 0.05)
# two constant parts, 0 and 2, and one monitored part
@example(Mul(Const(2.0), Inv(TransVar("1", "3"))), ["1", "2", "1", "3", "1", "4"] * 30, 3, 0.05)
# a nonzero constant phi_a
@example(Add(Const(0.5), Mul(TransVar("1", "2"), Inv(TransVar("1", "3")))),
         ["1", "3", "1", "2", "2", "1"] * 30, 4, 0.5)
# source 1 is visited twice as often as the two draws from 2 that a round
# needs, so its pool grows and the target order decides what u picks
@example(Add(Sub(TransVar("1", "2"), TransVar("1", "3")),
             Mul(TransVar("2", "3"), TransVar("2", "4"))), list("12131412") * 30, 2, 0.05)
def test_mc_coded_engine_matches_dict_engine(e, stream, seed, delta):
    """Every bit of every verdict, the round count, the running means, the
    buffer peak and the register count, in both modes, and the same exception
    type where the reference raises."""
    for mode in ("pointwise", "uniform"):
        expected = _lines(lambda: _mc_lines(lambda: reference_mc(e, delta, mode, seed), stream))
        got = _lines(lambda: _mc_lines(lambda: build_mc_monitor(e, delta, mode, seed=seed),
                                       stream))
        assert got == expected, (pretty_print(e), mode)
