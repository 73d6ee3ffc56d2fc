import math
import struct
import warnings

import numpy as np
import pytest

from fairmon.bounds import (DeltaBudget, baseline_union_interval,
                            ci_mc_pointwise, ci_mc_uniform,
                            ci_pomc_pointwise, ci_pomc_uniform,
                            mc_halfwidth, naive_uniform_lift,
                            pomc_halfwidth_blocks, split_delta)
from fairmon.errors import ConfigError
from fairmon.intervals import Interval
from fairmon.pomc import _BLOCK
from fairmon.speclang import parse

PI = math.pi


# independent transcriptions of the half-width displays, kept separate from
# the implementation on purpose
def oracle_pomc_pointwise(d, t, n, a, b, tau):
    return math.sqrt(math.log(2 / d) * (t * n**2 * (b - a) ** 2 * 9 * tau) / (2 * (t - (n - 1)) ** 2))


def oracle_pomc_uniform(d, t, n, a, b, tau):
    return math.sqrt(math.log(PI**2 * t**2 / (3 * d)) * (t * n**2 * (b - a) ** 2 * 9 * tau) / (2 * (t - (n - 1)) ** 2))


def oracle_mc_pointwise(t, d, s2):
    return math.sqrt(s2 / (2 * t) * math.log(2 / d))


def oracle_mc_uniform(t, d, s2):
    s = max(1.0, s2 * t)
    inner = max(1.0, math.log(s))
    raw = math.sqrt(1.064 * s * (2 * math.log(PI * inner / math.sqrt(6)) + math.log(2 / d))) / t
    return max(raw, oracle_mc_pointwise(t, d, s2))


class TestPomcBounds:
    def test_pointwise_frozen_value(self):
        # sqrt(9 ln 40 / 2000), recomputed at 30-digit precision beforehand
        assert ci_pomc_pointwise(0.05, 1000, 1, 0.0, 1.0, 1.0) == pytest.approx(
            0.12884082250402127, abs=1e-15)

    def test_zero_width_range(self):
        assert ci_pomc_pointwise(0.05, 50, 2, 0.3, 0.3, 5.0) == 0.0
        assert ci_pomc_uniform(0.05, 50, 2, 0.3, 0.3, 5.0) == 0.0

    def test_sqrt2_shrink_at_arity_one(self):
        a = ci_pomc_pointwise(0.05, 10_000, 1, 0.0, 1.0, 3.0)
        b = ci_pomc_pointwise(0.05, 20_000, 1, 0.0, 1.0, 3.0)
        assert a / b == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_uniform_over_pointwise_ratio(self):
        # sqrt(ln(pi^2 1e6 / 0.15) / ln 40), recomputed independently
        r = ci_pomc_uniform(0.05, 1000, 1, 0.0, 1.0, 1.0) / \
            ci_pomc_pointwise(0.05, 1000, 1, 0.0, 1.0, 1.0)
        assert r == pytest.approx(2.2090942047, abs=1e-9)

    def test_uniform_dominates_pointwise_everywhere(self):
        # pi^2 t^2 / 3 >= 2 for every t >= 1, so the log factor is larger
        for t in [1, 2, 5, 17, 1000, 10**6]:
            for d in [0.01, 0.05, 0.5, 0.99]:
                lo = ci_pomc_pointwise(d, t, 1, 0.0, 1.0, 2.0)
                hi = ci_pomc_uniform(d, t, 1, 0.0, 1.0, 2.0)
                assert hi >= lo

    def test_matches_oracle_on_grid(self):
        for t in [3, 10, 1000]:
            for n in [1, 2, 3]:
                for tau in [1.0, 7.45, 204.94]:
                    got = ci_pomc_pointwise(0.05, t, n, -1.0, 2.0, tau)
                    assert got == pytest.approx(
                        oracle_pomc_pointwise(0.05, t, n, -1.0, 2.0, tau), rel=1e-14)
                    got = ci_pomc_uniform(0.05, t, n, -1.0, 2.0, tau)
                    assert got == pytest.approx(
                        oracle_pomc_uniform(0.05, t, n, -1.0, 2.0, tau), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            ci_pomc_pointwise(0.0, 10, 1, 0, 1, 1)
        with pytest.raises(ConfigError):
            ci_pomc_pointwise(0.05, 1, 2, 0, 1, 1)  # t < n
        with pytest.raises(ConfigError):
            ci_pomc_pointwise(0.05, 10, 1, 1, 0, 1)  # b < a
        with pytest.raises(ConfigError):
            ci_pomc_pointwise(0.05, 10, 1, 0, 1, 0.5)  # tau < 1

    @pytest.mark.parametrize("ci", [ci_pomc_pointwise, ci_pomc_uniform])
    def test_keeps_the_one_line_formula(self, ci):
        uniform = ci is ci_pomc_uniform
        for d in [0.05 / 3, 0.0125, 0.1 / 7]:
            for n in [1, 2, 3, 5]:
                for a, b in [(0.0, 1.0), (-1.0, 2.0), (0.0, 0.3), (-0.3, 0.4),
                             (0.1, 0.35), (0.0, math.inf)]:
                    for tau in [1.0, 7.45, 35.0, 204.94]:
                        for t in [n, n + 1, 31, 97, 777, 12_345, 2**20 + 3, 10**9]:
                            got = ci(d, t, n, a, b, tau)
                            assert type(got) is float
                            assert packed([got]) == packed([one_line(d, t, n, a, b, tau, uniform)])

    @pytest.mark.parametrize("ci", [ci_pomc_pointwise, ci_pomc_uniform])
    def test_nan_arguments_rejected(self, ci):
        with pytest.raises(ConfigError):
            ci(0.05, 10, 1, 0.0, 1.0, math.nan)  # tau
        with pytest.raises(ConfigError):
            ci(0.05, 10, 1, 0.0, math.nan, 1.0)  # range


def one_line(d, t, n, a, b, tau, uniform):
    """The display in its original operand order, over Python ints t and n."""
    kernel = t * n * n * (b - a) ** 2 * 9.0 * tau / (2.0 * (t - (n - 1)) ** 2)
    log_term = math.log(PI * PI * t * t / (3.0 * d)) if uniform else math.log(2.0 / d)
    return math.sqrt(log_term * kernel)


def packed(values):
    return [struct.pack("<d", v) for v in values]


class TestHalfwidthBlocks:
    """``pomc_halfwidth_blocks`` computes every ``pomc`` half-width: the
    monitor's tables a block at a time, the coverage evaluator's from t = 0
    and ``ci_pomc_*`` one t at a time.  Each block holds one float64 array
    per (share, arity, range) key, NaN below the arity, and every value must
    be the one-line formula's over Python ints, bit for bit, up to 2**53."""

    @staticmethod
    def check(keys, tau, uniform, start, stop):
        values = pomc_halfwidth_blocks(keys, tau, uniform)(start, stop)
        assert len(values) == len(keys)
        for (d, n, a, b), got in zip(keys, values):
            assert got.dtype == np.float64 and got.shape == (stop - start,)
            below = max(min(n - start, stop - start), 0)
            assert np.isnan(got[:below]).all()
            assert packed(got[below:].tolist()) == packed(
                one_line(d, t, n, a, b, tau, uniform) for t in range(start + below, stop))

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_block_keeps_the_one_line_formula(self, n, uniform):
        # two shares, each with a range of one value and an unbounded one
        keys = [(d, n, a, b) for d in [0.0125, 0.05 / 3]
                for a, b in [(0.0, 1.0), (-40.0, 60.0), (0.3, 0.3), (0.0, math.inf)]]
        for tau in [1.0, 35.0]:
            for start in [1, n, _BLOCK - 1, 10**6 + 7, 3_037_000_500 - _BLOCK,
                          3_037_000_000, 2**40, 2**53 - _BLOCK]:
                self.check(keys, tau, uniform, start, start + _BLOCK)

    @pytest.mark.parametrize("uniform", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_table_from_zero(self, n, uniform):
        # the coverage evaluator's call: t = 0..horizon, NaN below n
        keys = [(d, n, a, b) for d in [0.0125, 0.05 / 3]
                for a, b in [(0.0, 1.0), (-40.0, 60.0), (0.3, 0.3), (0.0, math.inf)]]
        for tau in [1.0, 7.45, 35.0]:
            self.check(keys, tau, uniform, 0, 5001)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_arities_share_a_block(self, uniform):
        keys = [(0.0125, n, 0.0, 1.0) for n in (3, 1, 2)]
        for start, stop in [(0, 40), (1, 40), (3, 3 + _BLOCK), (0, 3), (2, 2),
                            (3_037_000_500 - _BLOCK, 3_037_000_500),
                            (3_037_000_000, 3_037_000_000 + _BLOCK)]:
            self.check(keys, 7.45, uniform, start, stop)

    def test_spot_checks_up_to_a_million(self):
        for uniform in [False, True]:
            table = pomc_halfwidth_blocks([(0.0125, 2, 0.0, 1.0)], 7.45, uniform)(0, 10**6 + 1)[0]
            ts = list(range(2, 10**6 + 1, 9973)) + [10**6 - 1, 10**6]
            assert packed(table[ts].tolist()) == packed(
                one_line(0.0125, t, 2, 0.0, 1.0, 7.45, uniform) for t in ts)

    def test_log_is_libms(self):
        # numpy 2.4's np.log differed from math.log in the last bit at these
        # t on an x86-64 VM, enough to change the uniform half-width
        for d, ts in [(0.0125, [160362, 254574]), (0.05 / 3, [55022, 69307])]:
            for t in ts:
                self.check([(d, 1, 0.0, 1.0)], 35.0, True, t, t + 1)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_no_runtime_warning(self, uniform):
        # t = 0 and t < n are never computed, and a product that overflows is
        # inf, as over Python floats
        keys = [(0.0125, 3, 0.0, 1.0), (0.0125, 1, 0.0, 1e150), (0.0125, 2, 0.0, 5e-324)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for start, stop in [(0, 5), (2**40, 2**40 + 8)]:
                self.check(keys, 7.45, uniform, start, stop)
            eps = pomc_halfwidth_blocks(keys, math.inf, uniform)(2**40, 2**40 + 8)
        assert np.isinf(eps[0]).all() and np.isinf(eps[1]).all() and np.isnan(eps[2]).all()

    def test_checks_at_build(self):
        for args in [(0.0, 1, 0, 1, 1), (0.05, 0, 0, 1, 1), (0.05, 1, 1, 0, 1),
                     (0.05, 1, 0, 1, 0.5), (0.05, 1, 0, 1, math.nan), (0.05, 1, 0, math.nan, 1)]:
            with pytest.raises(ConfigError):
                pomc_halfwidth_blocks([(0.0125, 1, 0.0, 1.0), args[:4]], args[4], True)


class TestMcBounds:
    def test_pointwise_frozen_value(self):
        # sqrt(ln 40 / 200)
        assert ci_mc_pointwise(100, 0.05, 1.0) == pytest.approx(
            0.13581015157406195, abs=1e-15)

    def test_sqrt_t_scaling(self):
        assert ci_mc_pointwise(200, 0.05, 1.0) == pytest.approx(
            0.13581015157406195 / math.sqrt(2.0), rel=1e-12)

    def test_zero_variance(self):
        assert ci_mc_pointwise(10, 0.05, 0.0) == 0.0

    @pytest.mark.parametrize("uniform", [False, True])
    def test_halfwidth_function_keeps_the_one_line_formula(self, uniform):
        # bit for bit the displays as written before their constants moved
        # to the per-monitor function
        def one_line(t, d, s2):
            pointwise = math.sqrt(s2 / (2.0 * t) * math.log(2.0 / d))
            if not uniform:
                return pointwise
            s = max(1.0, s2 * t)
            inner = max(1.0, math.log(s))
            width = math.sqrt(1.064 * s * (2.0 * math.log(PI * inner / math.sqrt(6.0))
                                           + math.log(2.0 / d))) / t
            return max(width, pointwise)

        for d in [0.05 / 3, 0.0125, 0.1 / 7, 0.5]:
            for s2 in [0.0, 1e-9, 0.25, 1.0, 2.25, 4.0, 1e6, math.inf]:
                halfwidth = mc_halfwidth(d, s2, uniform)
                for t in [1, 2, 3, 17, 1000, 12_345, 2**20 + 3, 10**9]:
                    assert halfwidth(t) == one_line(t, d, s2)

    @pytest.mark.parametrize("uniform", [False, True])
    def test_halfwidth_function_checks_at_build(self, uniform):
        for delta, sigma_sq in [(0.0, 1.0), (1.0, 1.0), (math.nan, 1.0), (0.05, -1.0),
                                (0.05, math.nan)]:
            with pytest.raises(ConfigError):
                mc_halfwidth(delta, sigma_sq, uniform)

    def test_uniform_frozen_value(self):
        # inner log = ln 1e4; recomputed at 30-digit precision beforehand
        assert ci_mc_uniform(10_000, 0.05, 1.0) == pytest.approx(
            0.0302974855474, abs=1e-12)

    def test_uniform_clamp_at_zero_variance(self):
        t = 10
        expect = math.sqrt(1.064 * (2 * math.log(PI / math.sqrt(6)) + math.log(40))) / t
        assert ci_mc_uniform(t, 0.05, 0.0) == pytest.approx(expect, rel=1e-12)

    def test_uniform_dominates_pointwise_grid(self):
        for t in [1, 2, 3, 10, 100, 10**4, 10**6]:
            for s2 in [0.0, 1e-6, 0.25, 1.0, 81.0]:
                for d in [0.01, 0.05, 0.5]:
                    assert ci_mc_uniform(t, d, s2) >= ci_mc_pointwise(t, d, s2)

    def test_uniform_monotone_past_warmup(self):
        prev = None
        for t in range(10, 2000, 7):
            v = ci_mc_uniform(t, 0.05, 1.0)
            if prev is not None:
                assert v < prev
            prev = v

    def test_matches_oracle_on_grid(self):
        for t in [1, 2, 7, 500, 10**5]:
            for s2 in [0.0, 0.3, 1.0, 81.0]:
                assert ci_mc_pointwise(t, 0.07, s2) == pytest.approx(
                    oracle_mc_pointwise(t, 0.07, s2), rel=1e-14)
                assert ci_mc_uniform(t, 0.07, s2) == pytest.approx(
                    oracle_mc_uniform(t, 0.07, s2), rel=1e-14)

    def test_nonincreasing_in_delta(self):
        deltas = [0.01, 0.05, 0.1, 0.5, 0.9]
        for fn in (lambda d: ci_mc_pointwise(100, d, 1.0),
                   lambda d: ci_mc_uniform(100, d, 1.0),
                   lambda d: ci_pomc_pointwise(d, 100, 2, 0, 1, 3.0),
                   lambda d: ci_pomc_uniform(d, 100, 2, 0, 1, 3.0)):
            vals = [fn(d) for d in deltas]
            assert vals == sorted(vals, reverse=True)

    def test_nonincreasing_in_t_past_2n(self):
        for fn in (lambda t: ci_mc_pointwise(t, 0.05, 1.0),
                   lambda t: ci_mc_uniform(t, 0.05, 1.0),
                   lambda t: ci_pomc_pointwise(0.05, t, 2, 0, 1, 3.0),
                   lambda t: ci_pomc_uniform(0.05, t, 2, 0, 1, 3.0)):
            vals = [fn(t) for t in range(4, 4000, 13)]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestNaiveLift:
    def test_polynomial_spends_6_over_pi_sq(self):
        # delta_1 = 0.05 * 6/pi^2
        d1 = 0.05 * 6 / PI**2
        assert naive_uniform_lift(0.05, 1, "polynomial") == pytest.approx(
            ci_mc_pointwise(1, d1, 1.0), rel=1e-12)
        assert d1 == pytest.approx(0.03039635509, abs=1e-9)

    def test_exponential_spends_halving(self):
        # delta_20 = 0.05 / 2^20 ~ 4.77e-8; widths computed in log space
        d20 = 0.05 / 2**20
        assert d20 == pytest.approx(4.768371582e-8, rel=1e-9)
        assert naive_uniform_lift(0.05, 20, "exponential") == pytest.approx(
            math.sqrt(math.log(2 / d20) / 40), rel=1e-12)

    def test_stitched_beats_both_lifts_eventually(self):
        t = 10**5
        st = ci_mc_uniform(t, 0.05, 1.0)
        assert st < naive_uniform_lift(0.05, t, "polynomial")
        assert st < naive_uniform_lift(0.05, t, "exponential")

    def test_unknown_scaling(self):
        with pytest.raises(ConfigError):
            naive_uniform_lift(0.05, 10, "geometric")

    @pytest.mark.parametrize("sigma_sq", [math.nan, -1.0])
    def test_bad_variance_rejected(self, sigma_sq):
        for width in (ci_mc_pointwise, ci_mc_uniform):
            with pytest.raises(ConfigError):
                width(10, 0.05, sigma_sq)
        for scaling in ("polynomial", "exponential"):
            with pytest.raises(ConfigError):
                naive_uniform_lift(0.05, 10, scaling, sigma_sq)


class TestDeltaSplit:
    def test_equal_split_two_atoms(self):
        expr = parse("P[a] + P[b]", ["a", "b"])
        budget = split_delta(0.05, expr)
        assert budget.shares() == [0.025, 0.025]
        assert isinstance(budget, DeltaBudget)

    def test_single_atom_keeps_everything(self):
        expr = parse("P[a]", ["a", "b"])
        assert split_delta(0.05, expr).shares() == [0.05]

    def test_division_decomposition_gets_thirds(self):
        # the divided-path split: one third per division-free part
        assert 0.06 / 3 == pytest.approx(0.02)

    def test_pure_constant_rejected(self):
        with pytest.raises(ConfigError):
            split_delta(0.05, parse("0.5", []))

    def test_shares_sum_to_total(self):
        expr = parse("P[a b] / P[a] - P[b a] / P[b]", ["a", "b"])
        budget = split_delta(0.05, expr)
        assert len(budget.shares()) == 4
        assert sum(budget.shares()) == pytest.approx(0.05)


class TestBaselineUnion:
    def test_single_variable_ratio_one(self):
        expr = parse("T[1->2]", ["1", "2"])
        eps = ci_mc_pointwise(1000, 0.05, 1.0)
        folded = baseline_union_interval([Interval(0.5 - eps, 0.5 + eps)], expr)
        assert folded.width / 2 == pytest.approx(eps)

    def test_two_summands_ratio(self):
        # baseline half-width 2 sqrt(ln80/(2t)) vs direct sqrt(ln40/(2t))
        t = 1000
        expr = parse("T[1->2] + T[1->3]", ["1", "2", "3"])
        eps = ci_mc_pointwise(t, 0.025, 1.0)
        folded = baseline_union_interval(
            [Interval(0.25 - eps, 0.25 + eps)] * 2, expr)
        ratio = (folded.width / 2) / ci_mc_pointwise(t, 0.05, 1.0)
        assert ratio == pytest.approx(2 * math.sqrt(math.log(80) / math.log(40)), rel=1e-9)

    def test_arity_mismatch(self):
        expr = parse("T[1->2] + T[1->3]", ["1", "2", "3"])
        with pytest.raises(ConfigError):
            baseline_union_interval([Interval(0, 1)], expr)
        with pytest.raises(ConfigError):
            baseline_union_interval([Interval(0, 1)] * 3, expr)
