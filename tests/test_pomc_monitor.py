import hashlib
import math

import pytest

from fairmon.bounds import ci_pomc_pointwise, ci_pomc_uniform, split_delta
from fairmon.errors import ConfigError
from fairmon.markov import simulate, simulate_states, truth_value_bse
from fairmon.intervals import Interval
from fairmon import pomc
from fairmon.pomc import build_pomc_monitor
from fairmon.speclang import Atom, AtomDef, bse_range, parse, parse_spec_file
from fairmon.experiments import PomcSeriesEvaluator, hypercube_pomc, lending_pomc

ALPHA = ["A", "B", "Y", "N"]

# an asymmetric arity-3 table with wildcards catches a value table laid
# out in the wrong word order; the ratio exercises interval division
TABLE_SPEC = """
alphabet: s y n a b
atom appr arity 3 range [0,1] { _ a y -> 1; a _ _ -> 0.25; b _ n -> 0.5; default -> 0 }
property: F[appr] - P[y | a]
"""


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
                with pytest.raises(ConfigError):
                    mon.next("Q")
                for s in stream[before:before + 50]:
                    assert repr(mon.next(s)) == repr(clean.next(s))


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
            ev = PomcSeriesEvaluator(expr, model.alphabet, horizon, 0.05, 7.45)
            for mode, (lo, hi, pt) in zip(("pointwise", "uniform"), ev.run(codes)):
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
def test_window_functions_match_value_tables(monkeypatch, spec, mode, intersect):
    """An atom reads the same values from its table of every word as from its
    window function on the last symbols: with tables for all atoms, for
    arities 1 and 2 only (25 words), for none, and without an alphabet."""
    doc = parse_spec_file(TestVerdictDigests.SPECS[spec])
    stream = list(simulate(lending_pomc(), 2000, 4, start="stationary"))
    every = pomc._MEMO_WORDS

    def lines(memo_words, alphabet):
        monkeypatch.setattr(pomc, "_MEMO_WORDS", memo_words)
        mon = build_pomc_monitor(doc.expression, 0.1, mode, 7.45, alphabet=alphabet,
                                 intersect_verdicts=intersect)
        return [repr(mon.next(s)) for s in stream]

    tabled = lines(every, doc.alphabet)
    assert lines(25, doc.alphabet) == tabled
    assert lines(0, doc.alphabet) == tabled
    assert lines(every, None) == tabled


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
