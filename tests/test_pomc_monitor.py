import math

import pytest

from fairmon.bounds import ci_pomc_pointwise, ci_pomc_uniform, split_delta
from fairmon.errors import ConfigError
from fairmon.markov import simulate_states, truth_value_bse
from fairmon.intervals import Interval
from fairmon.pomc import AtomicMonitor, build_pomc_monitor
from fairmon.speclang import AtomDef, parse
from fairmon.experiments import PomcSeriesEvaluator, hypercube_pomc

ALPHA = ["A", "B", "Y", "N"]


def indicator_ay(window):
    return 1.0 if window == ("A", "Y") else 0.0


class TestAtomicMonitor:
    def test_warmup_is_inconclusive(self):
        mon = AtomicMonitor(indicator_ay, 2, 0.0, 1.0, 0.05, "pointwise", 1.0)
        assert mon.next("A").is_inconclusive

    def test_point_estimate_over_windows(self):
        # stream A Y B N A Y has windows AY, YB, BN, NA, AY -> mean 2/5
        mon = AtomicMonitor(indicator_ay, 2, 0.0, 1.0, 0.05, "pointwise", 1.0)
        verdict = None
        for s in ["A", "Y", "B", "N", "A", "Y"]:
            verdict = mon.next(s)
        assert verdict.point == pytest.approx(0.4)

    def test_constant_atom_collapses_to_point(self):
        atom = AtomDef("c", 1, 0.7, 0.7, (), 0.7)
        mon = AtomicMonitor(atom.evaluate, 1, 0.7, 0.7, 0.05, "pointwise", 1.0)
        for s in ["A", "B", "A"]:
            v = mon.next(s)
            assert (v.interval.lo, v.interval.hi) == (0.7, 0.7)

    def test_halfwidth_is_exactly_the_formula(self):
        # before range clipping the emitted half-width is the bound itself,
        # bitwise-identical to the shared formula
        mon = AtomicMonitor(indicator_ay, 2, -10.0, 10.0, 0.05, "pointwise", 3.0)
        stream = ["A", "Y", "B", "A", "Y", "N", "A"]
        for t, s in enumerate(stream, start=1):
            v = mon.next(s)
            if t >= 2:
                assert mon.last_halfwidth == ci_pomc_pointwise(0.05, t, 2, -10.0, 10.0, 3.0)
                assert v.interval == Interval(mon._mean - mon.last_halfwidth,
                                              mon._mean + mon.last_halfwidth).intersect(
                                                  Interval(-10.0, 10.0))

    def test_uniform_mode_uses_uniform_formula(self):
        mon = AtomicMonitor(indicator_ay, 2, -10.0, 10.0, 0.05, "uniform", 3.0)
        mon.next("A")
        mon.next("Y")
        assert mon.last_halfwidth == ci_pomc_uniform(0.05, 2, 2, -10.0, 10.0, 3.0)

    def test_verdict_clipped_to_atom_range(self):
        mon = AtomicMonitor(indicator_ay, 2, 0.0, 1.0, 0.05, "pointwise", 5.0)
        mon.next("A")
        v = mon.next("Y")
        assert v.interval.lo >= 0.0 and v.interval.hi <= 1.0

    def test_symbol_outside_alphabet(self):
        mon = AtomicMonitor(indicator_ay, 2, 0.0, 1.0, 0.05, "pointwise", 1.0,
                            alphabet=ALPHA)
        with pytest.raises(ConfigError):
            mon.next("Q")


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
        model = hypercube_pomc(3)
        expr = parse("P[a a] - P[b b]", ["a", "b"], allow_transvars=False)
        horizon = 300
        codes = model.label_codes()[
            simulate_states(model, horizon, 1, seed=21, start="stationary")[0]]
        for mode in ("pointwise", "uniform"):
            ev = PomcSeriesEvaluator(expr, model.alphabet, horizon, 0.05, mode, 7.45)
            lo, hi, pt = ev.run(codes)
            mon = build_pomc_monitor(expr, 0.05, mode, 7.45, alphabet=model.alphabet)
            for t in range(1, horizon + 1):
                v = mon.next(model.alphabet[codes[t - 1]])
                if v.is_inconclusive:
                    assert math.isnan(lo[t])
                else:
                    assert v.interval.lo == pytest.approx(lo[t], abs=1e-12)
                    assert v.interval.hi == pytest.approx(hi[t], abs=1e-12)
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
