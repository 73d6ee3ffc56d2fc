import functools
import hashlib
import itertools
import math
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmon.bounds import ci_pomc_pointwise, ci_pomc_uniform, split_delta
from fairmon.errors import ConfigError, EventError
from fairmon.markov import simulate, simulate_states, truth_value_bse
from fairmon.intervals import Interval
from fairmon.pomc import INCONCLUSIVE, Verdict, build_pomc_monitor, plan
from fairmon.speclang import (Add, Atom, AtomDef, SeqProb, bse_range, leaves, parse,
                              parse_spec_file)
from fairmon.experiments import PomcSeriesEvaluator, hypercube_pomc, lending_pomc
from fairmon.experiments.runners import _default_checkpoints
from test_properties import monitor_lines, reference_pomc, window_of

ALPHA = ["A", "B", "Y", "N"]

# an asymmetric arity-3 table with wildcards catches a value table laid
# out in the wrong word order; the ratio exercises interval division
TABLE_SPEC = """
alphabet: s y n a b
atom appr arity 3 range [0,1] { _ a y -> 1; a _ _ -> 0.25; b _ n -> 0.5; default -> 0 }
property: F[appr] - P[y | a]
"""


# arity-4 words over 20 symbols, of which the atoms name 5: 20**4 words over
# the alphabet, 6**4 over the codes of the named symbols and one other
WIDE_SPEC = """alphabet: s y n a b c d e f g h i j k l m o p q r
property: P[a y s b] - P[b y s a] + P[y | a] * P[n]
"""

# an arity-2 table naming 1024 symbols: 1025**2 words over its codes, more
# than the 1 << 20 that a value table may hold
OVER_LIMIT = Atom(AtomDef("wide", 2, 0.0, 1.0,
                          tuple(((f"x{i}", "_"), 1.0) for i in range(1024)), 0.0))

# single-leaf expressions: the verdict is the atom's own interval and mean
AY = parse("P[A Y]", ALPHA)
# the A Y indicator on a [-10, 10] range, so that clipping to it is rare
WIDE_AY = Atom(AtomDef("ay", 2, -10.0, 10.0, ((("A", "Y"), 1.0),), 0.0))


def assert_halfwidth_is(ci, mode):
    """Every verdict is the mean plus/minus ``ci``, clipped to the atom range.

    The stream is long enough that late verdicts lie strictly inside the
    range, so the clip cannot hide a wrong half-width.
    """
    mon = build_pomc_monitor(WIDE_AY, 0.05, mode, 3.0)
    stream = ["A", "Y", "B", "A", "Y", "N", "A"] * 3000
    for t, s in enumerate(stream, start=1):
        v = mon.next(s)
        if t >= 2:
            eps = ci(0.05, t, 2, -10.0, 10.0, 3.0)
            assert v.interval == Interval(v.point - eps, v.point + eps).intersect(
                Interval(-10.0, 10.0))
    assert -10.0 < v.interval.lo and v.interval.hi < 10.0


class TestAtomicMonitor:
    """Monitors of a single atomic leaf."""

    def test_warmup_is_inconclusive(self):
        mon = build_pomc_monitor(AY, 0.05, "pointwise", 1.0)
        assert mon.next("A").is_inconclusive

    def test_point_estimate_over_windows(self):
        # stream A Y B N A Y has windows AY, YB, BN, NA, AY -> mean 2/5
        mon = build_pomc_monitor(AY, 0.05, "pointwise", 1.0)
        verdict = None
        for s in ["A", "Y", "B", "N", "A", "Y"]:
            verdict = mon.next(s)
        assert verdict.point == pytest.approx(0.4)

    def test_constant_atom_collapses_to_point(self):
        atom = Atom(AtomDef("c", 1, 0.7, 0.7, (), 0.7))
        mon = build_pomc_monitor(atom, 0.05, "pointwise", 1.0)
        # 0.7 is not dyadic, so an unclamped running mean drifts off it
        for s in ["A", "B", "A"] * 100:
            v = mon.next(s)
            assert (v.interval.lo, v.interval.hi, v.point) == (0.7, 0.7, 0.7)

    def test_halfwidth_is_exactly_the_formula(self):
        # before range clipping the emitted half-width is the bound itself,
        # bitwise-identical to the shared formula
        assert_halfwidth_is(ci_pomc_pointwise, "pointwise")

    def test_uniform_mode_uses_uniform_formula(self):
        assert_halfwidth_is(ci_pomc_uniform, "uniform")

    def test_verdict_clipped_to_atom_range(self):
        mon = build_pomc_monitor(AY, 0.05, "pointwise", 5.0)
        mon.next("A")
        v = mon.next("Y")
        assert v.interval.lo >= 0.0 and v.interval.hi <= 1.0

    def test_symbol_outside_alphabet(self):
        # a rejected symbol moves no state: the verdicts that follow are those
        # of a monitor that never saw it, in warm-up and after
        expr = parse("P[Y | A] - 2 * P[A Y N] + P[B]", ALPHA)
        stream = ["A", "Y", "N", "B", "A", "A", "Y", "B", "N"] * 10
        for intersect in (False, True):
            for before in (0, 1, 30):
                mon, clean = (build_pomc_monitor(expr, 0.05, "uniform", 1.0, alphabet=ALPHA,
                                                 intersect_verdicts=intersect)
                              for _ in range(2))
                for s in stream[:before]:
                    mon.next(s)
                    clean.next(s)
                with pytest.raises(EventError) as err:
                    mon.next("Q")
                assert isinstance(err.value, ConfigError) and err.value.symbol == "Q"
                for s in stream[before:before + 50]:
                    assert repr(mon.next(s)) == repr(clean.next(s))


# atoms of arity 1, 2 and 3, two with the same (share, arity, range) key, one
# of zero width and one table far wider than [0, 1]
HALFWIDTH_SPECS = {
    "arity-1": """alphabet: a b c
atom wide arity 1 range [-40, 60] { a -> 60; b -> -40; default -> 1 }
property: P[a] - F[wide] * P[b]
""",
    "arities-1-3": """alphabet: a b c
atom flat arity 2 range [0.25, 0.25] { default -> 0.25 }
atom wide arity 3 range [-40, 60] { a _ b -> 60; c c _ -> -40; default -> 1 }
property: P[a b] - F[flat] * F[wide] + P[b c] / P[a]
""",
}


def step_locals(step, symbol):
    """The local variables of one call ``step(symbol)`` as it returns."""
    seen = {}

    def trace(frame, event, arg):
        if frame.f_code is not step.__code__:
            return None

        def local(frame, event, arg):
            if event == "return":
                seen.update(frame.f_locals)
            return local
        return local

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        step(symbol)
    finally:
        sys.settrace(old)
    return seen


class TestGeneratedHalfwidths:
    """The step inlines one half-width per (share, arity, range) key, ``e0``,
    ``e1``, ... in order of first use, each bit for bit the ``ci_pomc_*``
    value.  The verdicts cannot show this: at τ = 35 every ``pomc-jsonl``
    interval is clipped to [-1, 1]."""

    @pytest.mark.parametrize("tau", [1.0, 7.45, 35.0])
    @pytest.mark.parametrize("mode", ["pointwise", "uniform"])
    @pytest.mark.parametrize("spec", sorted(HALFWIDTH_SPECS))
    def test_halfwidths_are_the_bounds_bit_for_bit(self, spec, mode, tau):
        doc = parse_spec_file(HALFWIDTH_SPECS[spec])
        atoms = leaves(doc.expression)
        shares = split_delta(0.05, doc.expression).shares()
        keys = list(dict.fromkeys((share, *window_of(leaf)[1:])
                                  for leaf, share in zip(atoms, shares)))
        assert len(keys) < len(atoms)
        ci = {"pointwise": ci_pomc_pointwise, "uniform": ci_pomc_uniform}[mode]
        step = build_pomc_monitor(doc.expression, 0.05, mode, tau, alphabet=doc.alphabet).next
        width = max(n for _, n, _, _ in keys)
        for _ in range(width - 1):
            step("a")
        # t from the largest arity to 1e5, log-spaced: the next event sets t
        clock = step.__closure__[step.__code__.co_freevars.index("t")]
        for t in sorted({round(width * (1e5 / width) ** (i / 60)) for i in range(61)}):
            clock.cell_contents = t - 1
            seen = step_locals(step, "c")
            assert seen["t"] == t
            got = [struct.pack("<d", seen[f"e{k}"]) for k in range(len(keys))]
            assert got == [struct.pack("<d", ci(share, t, n, a, b, tau))
                           for share, n, a, b in keys], t


class TestVerdictValue:
    def test_equal_values_are_equal_and_hash_equal(self):
        a = Verdict(Interval(-0.5, 0.25), 0.125)
        b = Verdict(point=0.125, interval=Interval(-0.5, 0.25), consistent=True)
        assert a == b and hash(a) == hash(b)
        assert a != Verdict(Interval(-0.5, 0.25), 0.125, False)
        assert a != Verdict(Interval(-0.5, 0.5), 0.125)
        assert a != (Interval(-0.5, 0.25), 0.125, True)
        assert {a, b, INCONCLUSIVE} == {a, Verdict(None)}

    def test_repr_as_the_dataclass_printed_it(self):
        assert repr(Verdict(Interval(0.0, 1.0), 0.5)) == \
            "Verdict(interval=[0.0, 1.0], point=0.5, consistent=True)"
        assert repr(INCONCLUSIVE) == "Verdict(interval=None, point=None, consistent=True)"
        assert repr(Verdict(None, -0.0, consistent=False)) == \
            "Verdict(interval=None, point=-0.0, consistent=False)"


class TestCompositeMonitor:
    def test_constant_expression(self):
        mon = build_pomc_monitor(parse("1 + 2", []), 0.05, "pointwise", 1.0)
        for s in ["A", "B"]:
            v = mon.next(s)
            assert (v.interval.lo, v.interval.hi) == (3.0, 3.0)

    def test_inconclusive_until_largest_arity_filled(self):
        expr = parse("P[A Y] - P[B]", ALPHA)
        mon = build_pomc_monitor(expr, 0.05, "pointwise", 1.0)
        assert mon.next("A").is_inconclusive
        assert not mon.next("Y").is_inconclusive

    def test_division_through_zero_gives_unbounded(self):
        expr = parse("P[A] / (P[B] - P[B])", ALPHA)
        mon = build_pomc_monitor(expr, 0.05, "pointwise", 1.0)
        v = mon.next("A")
        assert v.kind == "unbounded"

    def test_difference_of_conditionals_clipped_to_unit_difference(self):
        expr = parse("P[Y | A] - P[Y | B]", ALPHA)
        mon = build_pomc_monitor(expr, 0.05, "pointwise", 2.0)
        for s in ["A", "Y", "B", "N", "A", "Y"]:
            v = mon.next(s)
        assert v.interval.lo >= -1.0 and v.interval.hi <= 1.0

    def test_budget_split_across_leaves(self):
        expr = parse("P[Y | A] - P[Y | B]", ALPHA)
        assert split_delta(0.05, expr).shares() == [0.0125] * 4

    def test_running_intersection_off_by_default(self):
        expr = parse("P[A]", ALPHA)
        mon = build_pomc_monitor(expr, 0.05, "uniform", 1.0)
        widths = []
        for s in ["A", "B", "A", "A", "B", "A"]:
            widths.append(mon.next(s).interval.width)
        # raw verdicts can widen again when the estimate moves
        mon2 = build_pomc_monitor(expr, 0.05, "uniform", 1.0, intersect_verdicts=True)
        inter = []
        for s in ["A", "B", "A", "A", "B", "A"]:
            inter.append(mon2.next(s).interval.width)
        assert all(b <= a + 1e-15 for a, b in zip(inter, inter[1:]))
        assert inter[-1] <= widths[-1] + 1e-15

    def test_disjoint_running_intersection_is_inconsistent(self):
        # the stream switches regime, so a late verdict misses the running
        # intersection; the monitor says so instead of emitting a point
        mon = build_pomc_monitor(parse("P[A]", ["A", "B"]), 0.05, "uniform", 1.0,
                                 intersect_verdicts=True)
        kinds = []
        for s in ["A"] * 5000 + ["B"] * 200_000:
            v = mon.next(s)
            kinds.append(v.kind)
            if v.kind == "ok":
                assert v.interval.width > 0.0
        first = kinds.index("inconsistent")
        assert set(kinds[first:]) == {"inconsistent"}
        assert v.interval is None and not v.is_inconclusive
        assert v.point == pytest.approx(5000 / 205_000)

    def test_running_intersection_needs_uniform_mode(self):
        expr = parse("P[A]", ALPHA)
        with pytest.raises(ConfigError):
            build_pomc_monitor(expr, 0.05, "pointwise", 1.0, intersect_verdicts=True)

    def test_transvar_rejected(self):
        with pytest.raises(ConfigError):
            build_pomc_monitor(parse("T[A->Y]", ALPHA), 0.05, "pointwise", 1.0)


class TestAgainstVectorizedEvaluator:
    """The coverage evaluator tracks the streaming monitor to rounding.

    Its point estimates divide cumulative sums by the window count where
    the monitor keeps a running mean, so they agree to about 1e-15, not
    exactly.  The evaluator stays because the benchmark's coverage goldens
    were recorded from its arithmetic.
    """

    def test_streaming_matches_vectorized_series(self):
        hypercube = hypercube_pomc(3)
        lending = lending_pomc()
        cases = [(hypercube, parse("P[a a] - P[b b]", ["a", "b"], allow_transvars=False)),
                 (lending, parse_spec_file(TABLE_SPEC).expression)]
        horizon = 300
        for model, expr in cases:
            codes = model.label_codes()[
                simulate_states(model, horizon, 1, seed=21, start="stationary")[0]]
            ev = PomcSeriesEvaluator(expr, model.alphabet, horizon, 0.05, 7.45,
                                     stops=range(horizon + 1))
            (plo, phi, pt), uniform = ev.run(ev.codes[codes])
            for mode, (lo, hi) in (("pointwise", (plo, phi)), ("uniform", uniform)):
                mon = build_pomc_monitor(expr, 0.05, mode, 7.45, alphabet=model.alphabet)
                for t in range(1, horizon + 1):
                    v = mon.next(model.alphabet[codes[t - 1]])
                    if v.is_inconclusive:
                        assert math.isnan(lo[t])
                        continue
                    assert v.interval.lo == pytest.approx(lo[t], abs=1e-12)
                    assert v.interval.hi == pytest.approx(hi[t], abs=1e-12)
                    # the monitor gives no point while a denominator's is 0
                    if v.point is not None:
                        assert v.point == pytest.approx(pt[t], abs=1e-12)


class TestEvaluatorBits:
    """Every bit the coverage evaluator returns, recorded once.

    A digest hashes the pointwise ``(lo, hi, point)`` at the default
    checkpoints, then the uniform ``(lo, hi)`` at every t, as packed
    doubles, so a NaN's and a zero's sign count too.  At tau = 1 the
    half-widths leave the atom ranges: the negative constant factors send
    signed zeros through the interval product, and the divisions send
    infinities.
    """

    SPECS = {
        "conditional": (lending_pomc, "alphabet: s y n a b\nproperty: P[y | a] - P[y | b]"),
        "table": (lending_pomc, TABLE_SPEC),
        "hypercube": (lambda: hypercube_pomc(3), "alphabet: a b\nproperty: P[a a] - P[b b]"),
        "negative": (lending_pomc,
                     "alphabet: s y n a b\nproperty: -2 * P[a y] + P[a] * -0.5 + P[b]"),
    }
    # (spec, seed, horizon) -> (pointwise, uniform) sha256 hex digests
    DIGESTS = {
    ("conditional", 3, 300): ("dfe8f0febdd48f9ea5609f1163ab7a4f4e63ddaae8646f161b8f0c62c8a0a09a",
        "be055591b3015c5ce31d23502aaf70c99d25af9e661463bc4fd51af969f90880"),
    ("conditional", 3, 2000): ("9b5ac7ae448d647637118f8bb016104e4c8987928df3a6cf96de2be75b8ac071",
        "5b6c50ea9daef352f5fe9f041d7b3c0c0307e6fb18b564f1187bcf905ae2ebb6"),
    ("conditional", 8, 300): ("291c0897e90640ea094a0310de6b999201ec5cc106f013d12ad617d99dca38fc",
        "be055591b3015c5ce31d23502aaf70c99d25af9e661463bc4fd51af969f90880"),
    ("conditional", 8, 2000): ("75c12832fe7291acc4559ce4992c43df5ed4f556493463454a6c31e9ee1e957b",
        "5b6c50ea9daef352f5fe9f041d7b3c0c0307e6fb18b564f1187bcf905ae2ebb6"),
    ("table", 3, 300): ("3c54aedba07224ed06a75a2c1240781ec1b9701a13069f6190491ba6650d0edf",
        "30d5354170267e06655285b4323404aee0bb332939e9b69a7fa2675ccd8dd7d2"),
    ("table", 3, 2000): ("2090ec4da8cc801390cded1c3593d43822cb67974205c96e59e36fa0d0c5d7dd",
        "e58b937b169cd87654766abbe5bd247892a00eeff7ae893ac69dd6aaf20fc30e"),
    ("table", 8, 300): ("32d6348af2cfd4bfeebd416f1c307bf9d5246d1d6bcefceb5b08023dff0bc6f6",
        "30d5354170267e06655285b4323404aee0bb332939e9b69a7fa2675ccd8dd7d2"),
    ("table", 8, 2000): ("2f8a2567942dc53b3e24108bf6ffbfa4d7d9fb28c6f7fc598d5d67b69df9b335",
        "e58b937b169cd87654766abbe5bd247892a00eeff7ae893ac69dd6aaf20fc30e"),
    ("hypercube", 3, 300): ("adf183185cc754498e0494c70c6b8d870671bc64dd68d146a52de9c835705266",
        "be055591b3015c5ce31d23502aaf70c99d25af9e661463bc4fd51af969f90880"),
    ("hypercube", 3, 2000): ("39886c18bd49f71f5915cbef5961121ab0d9c35f72a1a96a9734bf135813946b",
        "2a73bd0a819ab991e640679991d469b31551484048429b1d7ad540c585a43ba1"),
    ("hypercube", 8, 300): ("9ca121c585268aca9e8a7c84f599c3cc7976fa1d9486419f9e551945fe8074be",
        "be055591b3015c5ce31d23502aaf70c99d25af9e661463bc4fd51af969f90880"),
    ("hypercube", 8, 2000): ("a9b3e9c23d292ff81c698c4b3c25619e03aff35731dcd87af916af5168717c3b",
        "62a00679b66a7e0e31b6dbc623b1f4f4fe4b1210541800f994117f93529a9263"),
    ("negative", 3, 300): ("50920bb8b605203bb620f64a1a739450fd5a7c330622249fd371ff6e43930870",
        "7845f3f413e3bc4d3b423131bc5daac026e9c5aca59fbd8b6f2ab1841a0bb064"),
    ("negative", 3, 2000): ("171a26303a773f8a658726c2ffa86e27e4b08fb062610f2c851ed362e72df42b",
        "ce64f21ebaedb6cad1bc801e81f1c7a5c10c04f7e3c8f9a21ff4b79b23303438"),
    ("negative", 8, 300): ("13d1f0f8d55fb1ba5850a985edb06e5afc424bef7001ae62852dcba7bb71dedc",
        "5f74d01b255e2e6841769905dc0c4fdc91124bc0a3db92f65180d8b4da78c52c"),
    ("negative", 8, 2000): ("be7c0b747711ca5ed1f457206ba6b65e53b2af7e1d24626ea96232e97391b996",
        "df5a4f162baf3b1883cde98919f9de182c9229b4c8d48366d2e427dccd753aab"),
    }

    @staticmethod
    def evaluate(spec, seed, horizon, stops):
        make, text = TestEvaluatorBits.SPECS[spec]
        model = make()
        codes = model.label_codes()[
            simulate_states(model, horizon, 1, seed, start="stationary")[0]]
        ev = PomcSeriesEvaluator(parse_spec_file(text).expression, model.alphabet, horizon,
                                 0.05, 1.0, stops)
        return ev.run(ev.codes[codes])

    @staticmethod
    def packed(*arrays):
        values = [x for a in arrays for x in a.tolist()]
        return struct.pack(f"<{len(values)}d", *values)

    @pytest.mark.parametrize("spec,seed,horizon", sorted(DIGESTS))
    def test_evaluator_digest(self, spec, seed, horizon):
        pointwise, uniform = self.evaluate(spec, seed, horizon, _default_checkpoints(horizon))
        assert (hashlib.sha256(self.packed(*pointwise)).hexdigest(),
                hashlib.sha256(self.packed(*uniform)).hexdigest()) == \
            self.DIGESTS[spec, seed, horizon]

    @pytest.mark.parametrize("spec", sorted(SPECS))
    def test_stops_give_the_values_at_every_t(self, spec):
        horizon = 300
        stops = [1, 2, 3, 7, 150, 299, 300]
        every, uniform = self.evaluate(spec, 8, horizon, range(horizon + 1))
        some, same = self.evaluate(spec, 8, horizon, stops)
        assert self.packed(*some) == self.packed(*(a[stops] for a in every))
        assert self.packed(*same) == self.packed(*uniform)

    def test_stops_and_codes_must_fit_the_horizon(self):
        model = lending_pomc()
        expr = parse_spec_file(self.SPECS["conditional"][1]).expression
        with pytest.raises(ConfigError, match="stops"):
            PomcSeriesEvaluator(expr, model.alphabet, 300, 0.05, 1.0, [10, 301])
        ev = PomcSeriesEvaluator(expr, model.alphabet, 300, 0.05, 1.0, [10, 300])
        with pytest.raises(ConfigError, match="300 codes"):
            ev.run(np.zeros(299, dtype=np.int64))


class TestUnbiasedness:
    def test_stationary_window_mean_is_unbiased(self):
        # 200 stationary-start runs at t = 1e4: the averaged point estimate
        # sits within 3 standard errors of the model value
        model = hypercube_pomc(3)
        expr = parse("P[a a]", ["a", "b"])
        truth = truth_value_bse(model, expr)
        runs, horizon = 200, 10_000
        states = simulate_states(model, horizon, runs, seed=17, start="stationary")
        codes = model.label_codes()[states]
        x = (codes[:, :-1] == 0) & (codes[:, 1:] == 0)
        estimates = x.mean(axis=1)
        se = estimates.std(ddof=1) / math.sqrt(runs)
        assert abs(estimates.mean() - truth) <= 3 * se


class TestTableAtoms:
    def test_composite_with_pattern_table_atom(self):
        from fairmon.speclang import parse_spec_file
        doc = parse_spec_file("""
alphabet: A B Y N
atom grantA arity 2 range [0,1] { A Y -> 1; default -> 0 }
property: F[grantA] - P[A Y]
""")
        mon = build_pomc_monitor(doc.expression, 0.05, "pointwise", 1.0,
                                 alphabet=doc.alphabet)
        v = None
        for s in ["A", "Y", "B", "A", "Y"]:
            v = mon.next(s)
        # both leaves measure the same event, so the point estimate cancels
        assert v.point == pytest.approx(0.0)
        assert v.interval.contains(0.0)


@pytest.mark.parametrize("spec", ["mixed", "table"])
@pytest.mark.parametrize("mode,intersect", [("pointwise", False), ("uniform", True)])
def test_window_functions_match_value_tables(spec, mode, intersect):
    """An atom reads the same values from its table over the plan's codes as
    the reference monitor does from its window function on the last symbols,
    with the spec's alphabet and without one."""
    doc = parse_spec_file(TestVerdictDigests.SPECS[spec])
    stream = list(simulate(lending_pomc(), 2000, 4, start="stationary"))
    expected = list(reference_pomc(doc.expression, 0.1, mode, stream, intersect))
    assert expected[-1].endswith(" ok")
    for alphabet in (doc.alphabet, None):
        assert list(monitor_lines(doc.expression, 0.1, mode, stream, intersect,
                                  alphabet)) == expected


def test_table_over_the_limit_is_refused():
    """A value table of more than 1 << 20 words is a ``ConfigError`` at build,
    with or without an alphabet; one of 1 << 20 words is built."""
    for expr in (parse(f"P[{' '.join('a' * 21)}]", ["a", "b"]), OVER_LIMIT):
        for alphabet in (["a", "b"], None):
            with pytest.raises(ConfigError, match=r"needs a value table of \d+\*\*\d+ words, "
                                                  r"more than 1048576"):
                build_pomc_monitor(expr, 0.05, "uniform", 1.0, alphabet=alphabet)
    mon = build_pomc_monitor(parse(f"P[{' '.join('a' * 20)}]", ["a", "b"]), 0.05, "uniform", 1.0)
    assert [mon.next("a").kind for _ in range(20)] == ["inconclusive"] * 19 + ["ok"]


# "_" is a wildcard in an F[...] pattern and a symbol of its own in a P[...] word
PLAN_SYMBOLS = ["a", "b", "c", "_"]


@st.composite
def window_leaves(draw):
    """An ``F`` atom of arity 1-3 whose first-match rules overlap, or a
    ``P`` word set with words shorter than its arity."""
    n = draw(st.integers(min_value=1, max_value=3))
    word = st.lists(st.sampled_from(PLAN_SYMBOLS), min_size=1, max_size=n).map(tuple)
    if draw(st.booleans()):
        return SeqProb(tuple(draw(st.lists(word, min_size=1, max_size=4))))
    value = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
    rules = st.lists(st.tuples(st.lists(st.sampled_from(PLAN_SYMBOLS), min_size=n,
                                        max_size=n).map(tuple), value), max_size=6)
    return Atom(AtomDef("f", n, -0.0, 1.0, tuple(draw(rules)), draw(value)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(window_leaves(), min_size=1, max_size=3))
def test_plan_tables_are_the_window_functions(atoms):
    """Each table, filled rule by rule, holds its window function's value on
    every word of codes, oldest most significant."""
    expr = functools.reduce(Add, atoms)
    codes, base, tables = plan(expr, 0.05, None)
    symbols = [*sorted(codes, key=codes.get), None]  # None: every symbol no atom names
    assert len(symbols) == base
    for leaf, (table, (_, n, _, _)) in zip(leaves(expr), tables):
        fn = leaf.ref.evaluate if isinstance(leaf, Atom) else leaf.indicator
        expected = [fn(w) for w in itertools.product(symbols, repeat=n)]
        assert table == expected
        assert [math.copysign(1.0, v) for v in table] == [math.copysign(1.0, v)
                                                          for v in expected]


def test_a_long_pattern_table_builds_in_a_few_seconds():
    """1023 rules, each naming its own symbol, over 1024**2 words: filled rule
    by rule, not by a scan of the rules for every word."""
    rules = tuple(((f"x{i}", "_") if i % 2 else ("_", f"x{i}"), i / 1023) for i in range(1023))
    atom = Atom(AtomDef("long", 2, 0.0, 1.0, rules, 0.5))
    start = time.perf_counter()
    mon = build_pomc_monitor(atom, 0.05, "uniform", 1.0)
    assert time.perf_counter() - start < 5.0
    codes, base, [(table, _)] = plan(atom, 0.05, None)
    assert base ** 2 == len(table) == 1 << 20
    words = np.random.default_rng(0).integers(0, 1024, size=(2000, 2)).tolist()
    symbols = [*sorted(codes, key=codes.get), None]
    assert [table[i * base + j] for i, j in words] == [
        atom.ref.evaluate((symbols[i], symbols[j])) for i, j in words]
    # x5 matches its own rule before x8's; x8 then x5 matches neither
    points = [mon.next(s).point for s in ("x5", "x8", "x5")]
    assert points == [None, 5 / 1023, 0.5 * (5 / 1023 + 0.5)]


class TestVerdictDigests:
    """Every bit of every verdict, recorded once and never regenerated.

    A digest hashes one ``t lo hi point kind`` line per event (floats by
    repr) over 5000 stationary lending_pomc events at tau = 1, where the
    half-widths are narrow enough for the range clip to leave endpoints
    standing (at tau = 7.45 the table spec hashes the same in every mode).
    At this length ``P[y | a] - P[y | b]`` still clips to [-1, 1] at both
    ends, so its digest pins the points and kinds; the table and
    mixed-arity specs pin the half-width bits, and their atoms warm up at
    different times.
    """

    SPECS = {
        "conditional": "alphabet: s y n a b\nproperty: P[y | a] - P[y | b]",
        "table": TABLE_SPEC,
        "mixed": "alphabet: s y n a b\nproperty: P[a] + 2 * P[a y s] - P[b]",
    }
    # (spec, mode, intersect) -> sha256 hex digest
    DIGESTS = {
        ("conditional", "pointwise", False):
            "7a2b3726bf87be37a2bd9a910008d21b93ba6e3e250f1a321dfbd7e16e89450b",
        ("conditional", "uniform", False):
            "7a2b3726bf87be37a2bd9a910008d21b93ba6e3e250f1a321dfbd7e16e89450b",
        ("conditional", "uniform", True):
            "7a2b3726bf87be37a2bd9a910008d21b93ba6e3e250f1a321dfbd7e16e89450b",
        ("table", "pointwise", False):
            "834d2f31667e3ac05e5e0a7ecb320643926e39069d9bd5de156badf27c6cec26",
        ("table", "uniform", False):
            "34ec2bb1cbaff95b955026e5aebce85e7cad3e12afb251110242af649ae320e8",
        ("table", "uniform", True):
            "27c06927ed24233b3a27d38dca7b9295f555220eaf12c47d91e9d8fda7a77c6d",
        ("mixed", "pointwise", False):
            "1f30a0a1a2fe955e3d8f4466d520b7e153802b9a4b3a757ad2cd2e37f3a01da7",
        ("mixed", "uniform", False):
            "b9b7a5617ef301bfa201a698bd72787a173206b869992705a891d7cd23ab58bb",
        ("mixed", "uniform", True):
            "6691ca822c0e400d9dc09b13273db0c8204bed8afbe77060e27f6b6c23cdd140",
    }

    @pytest.fixture(scope="class")
    def stream(self):
        return list(simulate(lending_pomc(), 5000, 1, start="stationary"))

    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize("mode,intersect", [("pointwise", False), ("uniform", False),
                                                ("uniform", True)])
    def test_verdict_stream_digest(self, stream, spec, mode, intersect):
        doc = parse_spec_file(self.SPECS[spec])
        mon = build_pomc_monitor(doc.expression, 0.05, mode, 1.0, alphabet=doc.alphabet,
                                 intersect_verdicts=intersect)
        digest = hashlib.sha256()
        for t, s in enumerate(stream, start=1):
            v = mon.next(s)
            lo, hi = (None, None) if v.interval is None else (v.interval.lo, v.interval.hi)
            digest.update(f"{t} {lo!r} {hi!r} {v.point!r} {v.kind}\n".encode())
        rng = bse_range(doc.expression)
        assert v.kind == "ok"
        if spec != "conditional":
            assert v.interval.hi < rng.hi
        if spec == "mixed":
            assert rng.lo < v.interval.lo
        assert digest.hexdigest() == self.DIGESTS[(spec, mode, intersect)]

    # tau = 7.45 and delta = 0.1 pin the bits of a non-integer mixing time and
    # of shares other than 0.05 / k.  The stream is 40000 events long because
    # the table spec's uniform intervals first leave its range at t = 31096.
    # (spec, mode, intersect) -> (digest, count of verdicts inside the range)
    DIGESTS_TAU_745 = {
        ("table", "pointwise", False):
            ("f00554697a7d981370441d540608308c117cd6a828408911b60aa8c33693907b", 35075),
        ("table", "uniform", False):
            ("b334d73942f98212833255a94c1d72035cb275162675316fe829a17d4e94fdef", 8905),
        ("table", "uniform", True):
            ("469684b711c9d14f3602fc266086f8db5e10871f103163d51046427e7b5ae416", 8905),
        ("mixed", "pointwise", False):
            ("d7bc0e78fef6739712e6f77cc29d324dac3b0784bac8a11462558855939f9737", 39806),
        ("mixed", "uniform", False):
            ("a1f400a876e84f236f935196f463a1035003c1f4df9ed8b0b21221c96808edce", 39165),
        ("mixed", "uniform", True):
            ("8aead5e258cd0c803d32327f6736e79fec8f472631d40b87878784303d90fd8e", 39166),
    }

    @pytest.fixture(scope="class")
    def long_stream(self):
        return list(simulate(lending_pomc(), 40000, 1, start="stationary"))

    @pytest.mark.parametrize("spec", ["mixed", "table"])
    @pytest.mark.parametrize("mode,intersect", [("pointwise", False), ("uniform", False),
                                                ("uniform", True)])
    def test_verdict_stream_digest_tau_745(self, long_stream, spec, mode, intersect):
        doc = parse_spec_file(self.SPECS[spec])
        mon = build_pomc_monitor(doc.expression, 0.1, mode, 7.45, alphabet=doc.alphabet,
                                 intersect_verdicts=intersect)
        rng = bse_range(doc.expression)
        digest, unclipped = hashlib.sha256(), 0
        for t, s in enumerate(long_stream, start=1):
            v = mon.next(s)
            lo, hi = (None, None) if v.interval is None else (v.interval.lo, v.interval.hi)
            unclipped += lo is not None and (rng.lo < lo or hi < rng.hi)
            digest.update(f"{t} {lo!r} {hi!r} {v.point!r} {v.kind}\n".encode())
        assert (digest.hexdigest(), unclipped) == self.DIGESTS_TAU_745[(spec, mode, intersect)]

    # Two specs whose atoms called their window functions on a tuple of the
    # last symbols until every atom read a value table over the codes of the
    # symbols it names: 20**4 words over the alphabet were more than the 4096
    # then tabulated, and a monitor without an alphabet tabulated nothing.  Recorded
    # from that code over 20000 events at tau = 1, where the wide spec's
    # intervals leave its range.
    SWITCH_SPECS = {"wide": (WIDE_SPEC, True), "table-without-alphabet": (TABLE_SPEC, False)}
    # (spec, mode, intersect) -> sha256 of repr(next(s)) over the events
    SWITCH_DIGESTS = {
        ("wide", "pointwise", False):
            "ae74cbb5f12aaac5e84030bf1d5f9345a62ebb24801692fc26aec129a4c61246",
        ("wide", "uniform", False):
            "92b2dec5614bb66c5554d60fe9ab8917fdbd135272af4b29a03b44bdcc626ef4",
        ("wide", "uniform", True):
            "d930570a4b03355800aaf29e33b01e7498f90a6e09e107cb578bc3490a491691",
        ("table-without-alphabet", "pointwise", False):
            "4e447bf100271b81fd45302910a98f01e9b6cf38bedadde6e5038e997410b41b",
        ("table-without-alphabet", "uniform", False):
            "e2d840827535b40e0648d6ceb2f51ef51d7820b1c9c863abb1f202aaab52423a",
        ("table-without-alphabet", "uniform", True):
            "4201ac3e59bd5dea9cbb82017b11d8fdaeb265a9feb59d185c08468d76ed7c1b",
    }

    @pytest.mark.parametrize("spec", sorted(SWITCH_SPECS))
    @pytest.mark.parametrize("mode,intersect", [("pointwise", False), ("uniform", False),
                                                ("uniform", True)])
    def test_switch_to_value_tables_digest(self, spec, mode, intersect):
        text, with_alphabet = self.SWITCH_SPECS[spec]
        doc = parse_spec_file(text)
        mon = build_pomc_monitor(doc.expression, 0.05, mode, 1.0, intersect_verdicts=intersect,
                                 alphabet=doc.alphabet if with_alphabet else None)
        digest = hashlib.sha256()
        for s in simulate(lending_pomc(), 20000, 1, start="stationary"):
            digest.update(repr(mon.next(s)).encode())
        assert digest.hexdigest() == self.SWITCH_DIGESTS[(spec, mode, intersect)]

    # Every route to a verdict without a point: the reciprocal of a zero point
    # (no a before event 16), a product that overflows, 0 * inf followed by a
    # product with a missing point, and a reciprocal at the root.
    NO_POINT_SPECS = {
        "zero-denominator": "alphabet: s y n a b\nproperty: P[b] / P[a]",
        "overflow": "alphabet: s y n a b\nproperty: P[a] * 1e300 * 1e300",
        "zero-times-infinity": "alphabet: s y n a b\nproperty: P[a] * 1e999 * 0",
        "reciprocal-root": "alphabet: s y n a b\nproperty: 1 / P[a]",
    }
    # (spec, mode, intersect) -> (digest, count of verdicts without a point)
    NO_POINT_DIGESTS = {
        ("zero-denominator", "pointwise", False):
            ("4b8c4990a69585dcb0617c29bee470501142a6ecabddb39fc0d2c6d30eddda0e", 16),
        ("zero-denominator", "uniform", False):
            ("6819663c85bacaee8f6ad2fd311e80bcca3f2e920720db46306034ff2f3c0c34", 16),
        ("zero-denominator", "uniform", True):
            ("7d57bcd528eb267122e249e28344753b4c180585f7e810ae878e4e45d8ca1310", 16),
        ("overflow", "pointwise", False):
            ("9fab0f649b7cf86c0930547e4e8db903e3c5c251c8a8e931decdc86f419aab3f", 4984),
        ("overflow", "uniform", False):
            ("6ee9b127158908e8aedcb9482dd740a7e70e870d97e73b467c96e20416db53a6", 4984),
        ("overflow", "uniform", True):
            ("6ee9b127158908e8aedcb9482dd740a7e70e870d97e73b467c96e20416db53a6", 4984),
        ("zero-times-infinity", "pointwise", False):
            ("c6e575f265876febb1f59b00c602f9d4586665bcb9895ea879388a14801f4124", 5000),
        ("zero-times-infinity", "uniform", False):
            ("c6e575f265876febb1f59b00c602f9d4586665bcb9895ea879388a14801f4124", 5000),
        ("zero-times-infinity", "uniform", True):
            ("c6e575f265876febb1f59b00c602f9d4586665bcb9895ea879388a14801f4124", 5000),
        ("reciprocal-root", "pointwise", False):
            ("a0daa81d95d30a711e01b064b20c3f49f9b1dc02739ad44b1e73dece048e46e6", 16),
        ("reciprocal-root", "uniform", False):
            ("25f1c8dcc20db27db46d9164456392fd3bcfb08ffd383067059d2260ee59e9e8", 16),
        ("reciprocal-root", "uniform", True):
            ("4bba7f8201d6d46209867194400ac24bb8419e8e7196c71ea07e47af62c71a47", 16),
    }

    @pytest.mark.parametrize("spec", sorted(NO_POINT_SPECS))
    @pytest.mark.parametrize("mode,intersect", [("pointwise", False), ("uniform", False),
                                                ("uniform", True)])
    def test_no_point_digest(self, stream, spec, mode, intersect):
        doc = parse_spec_file(self.NO_POINT_SPECS[spec])
        mon = build_pomc_monitor(doc.expression, 0.05, mode, 1.0, alphabet=doc.alphabet,
                                 intersect_verdicts=intersect)
        digest, missing = hashlib.sha256(), 0
        for t, s in enumerate(stream, start=1):
            v = mon.next(s)
            lo, hi = (None, None) if v.interval is None else (v.interval.lo, v.interval.hi)
            missing += v.point is None
            digest.update(f"{t} {lo!r} {hi!r} {v.point!r} {v.kind}\n".encode())
        assert (digest.hexdigest(), missing) == self.NO_POINT_DIGESTS[(spec, mode, intersect)]


def test_generated_step_tests_no_point_for_none():
    """A missing point is NaN inside the step, so the step of
    ``P[y | a] - P[y | b]``, whose leaf points are running means, makes no
    ``is None`` test."""
    doc = parse_spec_file(TestVerdictDigests.SPECS["conditional"])
    sources = [build_pomc_monitor(doc.expression, 0.05, "uniform", 35.0, alphabet=alphabet).source
               for alphabet in (doc.alphabet, None)]
    assert len(sources) == 2
    assert not any("is None" in source for source in sources)


# (spec, mode, intersect, alphabet) -> sha256 of the generated source, recorded
# when ``next`` and ``run`` became one step written through two exit hooks and
# the half-widths moved to block tables; the mode now lives in the tables only,
# so a pointwise and a uniform monitor have one source.  The conditional spec's
# and the alphabet-less entries were recorded again when every atom came to
# read a value table over the codes of the symbols it names and one other:
# base 4 for ``P[y | a] - P[y | b]``, and the same source with an alphabet as
# without one.  Every entry was recorded again when the step split into the
# lines every event runs (the means) and the verdict lines after them, which
# ``run`` runs only at the events it writes; every verdict digest held.
SOURCE_DIGESTS = {
    ("conditional", "pointwise", False, True):
        "e237856747079cc619a058613131f3168a16e9a9060b844bfc3fbc49ee82b5d3",
    ("conditional", "uniform", False, True):
        "e237856747079cc619a058613131f3168a16e9a9060b844bfc3fbc49ee82b5d3",
    ("conditional", "uniform", True, True):
        "58cf2a6b53c9bf08a3b2a8ae7749a9389f53b2a5892abb554dfe0d24d8652da3",
    ("conditional", "uniform", False, False):
        "e237856747079cc619a058613131f3168a16e9a9060b844bfc3fbc49ee82b5d3",
    ("mixed", "pointwise", False, True):
        "5623c793ed5e8d440fe80140455edcf5a5ed0c435ca76dcaa0700fe0d3b5506c",
    ("mixed", "uniform", True, True):
        "48d926fbe528356c329dc838bdbcc4946e147aa3ff45c7dcbe2680a884c078ce",
    ("table", "pointwise", False, True):
        "6ba71663fbad75aeca211af32a86c675ba49a29ea5ea3495b56a7d938e7b46c3",
    ("table", "uniform", False, True):
        "6ba71663fbad75aeca211af32a86c675ba49a29ea5ea3495b56a7d938e7b46c3",
    ("table", "uniform", True, True):
        "6a439501016203e0bd4b2b827b4757f0ec144e4b6463ce3adce24c1399113941",
    ("table", "uniform", True, False):
        "6a439501016203e0bd4b2b827b4757f0ec144e4b6463ce3adce24c1399113941",
}


@pytest.mark.parametrize("key", sorted(SOURCE_DIGESTS))
def test_generated_source_is_unchanged(key):
    spec, mode, intersect, alphabet = key
    doc = parse_spec_file(TestVerdictDigests.SPECS[spec])
    mon = build_pomc_monitor(doc.expression, 0.05, mode, 35.0, intersect_verdicts=intersect,
                             alphabet=doc.alphabet if alphabet else None)
    assert hashlib.sha256(mon.source.encode()).hexdigest() == SOURCE_DIGESTS[key]
