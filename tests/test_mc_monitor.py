import ast
import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from fairmon.bounds import ci_mc_pointwise
from fairmon.errors import ConfigError, EventError, SpecValidationError
from fairmon.intervals import Interval
from fairmon.markov import (ObservationModel, simulate, simulate_states,
                            truth_value_pse)
from fairmon.mc import MCMonitor, MCMonitorDivFree, build_mc_monitor
from fairmon.speclang import expression_size, parse
from fairmon.experiments import lending_mc

ALPHA = ["1", "2", "3", "4"]


def three_state(p12=0.3, p13=0.5):
    m = np.array([[1.0 - p12 - p13, p12, p13], [1, 0, 0], [1, 0, 0]])
    return ObservationModel(states=("1", "2", "3"), transitions=m,
                            initial=np.array([1.0, 0, 0]),
                            labels={s: s for s in ("1", "2", "3")})


def running_means(mon, symbols):
    """The monitor's running mean after each completed round."""
    means = []
    for s in symbols:
        mon.next(s)
        if mon.n_samples > len(means):
            means.append(mon.mean)
    return means


class Checked:
    """A monitor that, after every event, asserts on each of its division-free
    parts that run rounds: edge counters <= visits, and buffer length <= the
    layout's demand, per source state."""

    def __init__(self, monitor):
        self._monitor = monitor
        # (part, source) counters are numbered in part order, then source order
        self._counters = list(enumerate(
            (src, part.layout.demand[src]) for part in monitor._parts
            if hasattr(part, "layout") for src in part.layout.targets))

    def __getattr__(self, name):
        return getattr(self._monitor, name)

    def next(self, symbol):
        verdict = self._monitor.next(symbol)
        mon = self._monitor
        for k, (src, demand) in self._counters:
            assert sum(mon._cij[k]) <= mon._c[k], f"edge counters exceed visits at {src!r}"
            assert len(mon._z[k]) <= demand, f"buffer overgrew at {src!r}"
        return verdict


class TestHandTraces:
    def test_sum_over_two_visits(self):
        # path 1,2,1,3: both outcomes are forced draws from singleton pools
        mon = Checked(build_mc_monitor(parse("T[1->2] + T[1->3]", ALPHA), 0.05,
                                       "pointwise", seed=0))
        for s in ["1", "2", "1", "3"]:
            v = mon.next(s)
        assert mon.n_samples == 2
        assert mon.mean == 1.0
        assert v.kind == "ok"

    def test_dependent_product_waits_for_second_visit(self):
        mon = Checked(build_mc_monitor(parse("T[1->2] * T[1->3]", ALPHA), 0.05,
                                       "pointwise", seed=0))
        kinds = [mon.next(s).kind for s in ["1", "2", "1", "3"]]
        assert kinds == ["inconclusive"] * 3 + ["ok"]
        assert mon.n_samples == 1
        assert mon.mean == 1.0

    def test_single_variable_on_reference_run(self):
        # run 121123 yields the outcome sequence 1, 0, 1
        mon = Checked(build_mc_monitor(parse("T[1->2]", ALPHA), 0.05, "pointwise", seed=0))
        assert running_means(mon, "121123") == [1.0, 0.5, pytest.approx(2 / 3)]

    def test_inconclusive_before_any_relevant_visit(self):
        mon = build_mc_monitor(parse("T[1->2]", ALPHA), 0.05, "pointwise", seed=0)
        assert mon.next("2").is_inconclusive
        assert mon.next("3").is_inconclusive

    def test_constant_expression_zero_width(self):
        # 0.1 is not dyadic, so an unclamped running mean drifts off it
        mon = build_mc_monitor(parse("0.1", ALPHA), 0.05, "pointwise", seed=0)
        mon.next("1")
        for s in "21" * 100:
            v = mon.next(s)
            assert (v.interval.lo, v.interval.hi, v.point) == (0.1, 0.1, 0.1)

    @pytest.mark.parametrize("spec,parts", [("T[1->2] - T[1->3]", 1),
                                            ("T[1->2] / T[1->3]", 3)])
    def test_unknown_symbol_rejected_before_any_state_moves(self, spec, parts):
        expr = parse(spec, ALPHA)
        mon, clean, free = (build_mc_monitor(expr, 0.05, "pointwise", seed=0, alphabet=alphabet)
                            for alphabet in (ALPHA, ALPHA, None))
        assert len(mon._parts) == parts
        for m in (mon, clean, free):
            m.next("1")
        with pytest.raises(EventError) as err:
            mon.next("zzz")
        assert isinstance(err.value, ConfigError) and err.value.symbol == "zzz"
        # without an alphabet every symbol is valid, and an undeclared one
        # counts as the declared symbol 4, which no variable mentions
        stream = "21312413432" * 20
        verdicts = [clean.next(s) for s in stream]
        assert [mon.next(s) for s in stream] == verdicts
        assert [free.next("zzz" if s == "4" else s) for s in stream] == verdicts
        assert verdicts[-1].kind == "ok"

    def test_verdict_width_matches_formula(self):
        mon = build_mc_monitor(parse("T[1->2]", ALPHA), 0.05, "pointwise", seed=0)
        for s in "121212":
            v = mon.next(s)
        n = mon.n_samples
        eps = ci_mc_pointwise(n, 0.05, mon.sigma_sq)
        expect = Interval(mon.mean - eps, mon.mean + eps).intersect(mon.value_range)
        assert v.interval == expect


def coded(mon, source, target):
    """The monitor's code of ``source`` and its index of ``target`` there."""
    s = mon._codes[source]
    return s, mon._rows[s][mon._codes[target]]


class TestExtractOutcome:
    def test_first_draw_distribution(self):
        # pool: c_1 = 3 with two recorded 2-successors -> P(2) = 2/3
        hits = 0
        for seed in range(4000):
            mon = MCMonitorDivFree(parse("T[1->2]", ALPHA), 0.05, "pointwise", seed=seed)
            s, j = coded(mon, "1", "2")
            mon._c[s] = 3
            mon._cij[s][j] = 2
            mon._extract(s, 1)
            pick = mon._z[s][0]
            assert pick in (j, -1)  # -1: none of the relevant targets
            hits += pick == j
        freq = hits / 4000
        assert abs(freq - 2 / 3) <= 3 * math.sqrt((2 / 3) * (1 / 3) / 4000)

    def test_forced_draw(self):
        mon = MCMonitorDivFree(parse("T[1->2]", ALPHA), 0.05, "pointwise", seed=1)
        s, j = coded(mon, "1", "2")
        mon._c[s] = 1
        mon._cij[s][j] = 1
        mon._extract(s, 1)
        assert mon._z[s] == [j]
        assert mon._c[s] == 0 and mon._cij[s][j] == 0

    def test_empty_pool_leaves_buffer_short(self):
        mon = MCMonitorDivFree(parse("T[1->2]", ALPHA), 0.05, "pointwise", seed=1)
        s, _ = coded(mon, "1", "2")
        mon._extract(s, 1)
        assert mon._z[s] == []

    def test_reshuffle_is_exchangeable(self):
        # fixed pool of five 2-successors and three irrelevant visits: the
        # first draw must be 2 with probability 5/8 (chi-square, p = 0.01)
        trials = 100_000
        hits = 0
        expr = parse("T[1->2]", ALPHA)
        mon = MCMonitorDivFree(expr, 0.05, "pointwise", seed=0)
        s, j = coded(mon, "1", "2")
        for _ in range(trials):
            mon._c[s] = 8
            mon._cij[s][j] = 5
            mon._z[s].clear()
            mon._extract(s, 1)
            hits += mon._z[s][0] == j
        observed = [hits, trials - hits]
        expected = [trials * 5 / 8, trials * 3 / 8]
        _, p = stats.chisquare(observed, expected)
        assert p > 0.01

    def test_draws_without_replacement_exhaust_pool(self):
        mon = MCMonitorDivFree(parse("T[1->2] * T[1->2]", ALPHA), 0.05,
                               "pointwise", seed=3)
        s, j = coded(mon, "1", "2")
        mon._c[s] = 2
        mon._cij[s][j] = 2
        mon._extract(s, 2)
        assert mon._z[s] == [j, j]
        assert mon._c[s] == 0


class TestCountersAndRegisters:
    def test_counter_conservation_along_run(self):
        model = three_state()
        mon = Checked(build_mc_monitor(parse("T[1->2] * T[1->3]", ALPHA), 0.05,
                                       "pointwise", seed=5))
        names = list(model.states)
        for c in simulate_states(model, 20_000, 1, seed=6)[0]:
            mon.next(names[c])
        assert mon.n_samples > 100

    def test_buffer_peak_bounded_by_expression_size(self):
        model = three_state()
        expr = parse("T[1->2] * T[1->3] + T[1->2] * T[1->2]", ALPHA)
        mon = Checked(build_mc_monitor(expr, 0.05, "pointwise", seed=7))
        names = list(model.states)
        for c in simulate_states(model, 30_000, 1, seed=8)[0]:
            mon.next(names[c])
        assert mon.peak_buffer <= expression_size(expr) + 1

    def test_register_count_is_stable(self):
        model = three_state()
        mon = build_mc_monitor(parse("T[1->2] + T[1->3]", ALPHA), 0.05,
                               "pointwise", seed=9)
        names = list(model.states)
        states = simulate_states(model, 40_000, 1, seed=10)[0]
        mon.feed([names[c] for c in states[:20_000]])
        first = mon.register_count()
        mon.feed([names[c] for c in states[20_000:]])
        assert mon.register_count() == first

    def test_nested_division_rejected(self):
        # one class monitors every PSE whose normal form is a + b / c
        with pytest.raises(SpecValidationError):
            MCMonitor(parse("1 / (T[1->2] + T[1->3])", ALPHA), 0.05, "pointwise")

    def test_non_pse_rejected(self):
        with pytest.raises(SpecValidationError):
            build_mc_monitor(parse("P[1 2]", ALPHA), 0.05, "pointwise")


class TestConfidenceParameter:
    @pytest.mark.parametrize("delta", [1.5, 0.0, 1.0, -0.1, math.nan])
    @pytest.mark.parametrize("text", ["T[1->2]", "T[1->2] / T[1->3]"])
    def test_invalid_delta_fails_at_build(self, text, delta):
        # before the check, T[1->2] built with 1.5 and raised at the first round
        with pytest.raises(ConfigError, match="confidence parameter"):
            build_mc_monitor(parse(text, ALPHA), delta, "uniform")

    @pytest.mark.parametrize("delta", [1.5, 0.0, math.nan])
    def test_invalid_delta_fails_in_constructors(self, delta):
        with pytest.raises(ConfigError, match="confidence parameter"):
            MCMonitorDivFree(parse("T[1->2]", ALPHA), delta, "uniform")
        with pytest.raises(ConfigError, match="confidence parameter"):
            MCMonitor(parse("T[1->2] / T[1->3]", ALPHA), delta, "uniform")


class TestOutcomeDistribution:
    def test_dependent_product_mean(self):
        # E[Y] = M12 * M13 = 0.15 via temporally shifted draws
        model = three_state(0.3, 0.5)
        mon = build_mc_monitor(parse("T[1->2] * T[1->3]", ALPHA), 0.05,
                               "pointwise", seed=11)
        names = list(model.states)
        mon.feed([names[c] for c in simulate_states(model, 120_000, 1, seed=12)[0]])
        n = mon.n_samples
        assert n >= 10_000
        se = math.sqrt(0.15 * 0.85 / n)
        assert abs(mon.mean - 0.15) <= 3 * se

    def test_exclusive_sum_outcomes_stay_binary(self):
        model = three_state(0.3, 0.5)
        expr = parse("T[1->2] + T[1->3]", ALPHA)
        mon = build_mc_monitor(expr, 0.05, "pointwise", seed=13)
        names = list(model.states)
        means = running_means(mon, [names[c] for c in
                                    simulate_states(model, 5_000, 1, seed=14)[0]])
        values = []
        prev_sum = 0.0
        for n, mu in enumerate(means, start=1):
            total = mu * n
            values.append(total - prev_sum)
            prev_sum = total
        assert all(v == pytest.approx(0.0, abs=1e-9) or v == pytest.approx(1.0, abs=1e-9)
                   for v in values)

    def test_sum_mean_matches_truth(self):
        model = three_state(0.3, 0.5)
        expr = parse("T[1->2] + T[1->3]", ALPHA)
        truth = truth_value_pse(model, expr)
        mon = build_mc_monitor(expr, 0.05, "pointwise", seed=15)
        names = list(model.states)
        mon.feed([names[c] for c in simulate_states(model, 120_000, 1, seed=16)[0]])
        se = math.sqrt(truth * (1 - truth) / mon.n_samples)
        assert abs(mon.mean - truth) <= 3 * se


class TestDivisionMonitor:
    def test_disparate_impact_monitors_two_parts(self):
        # phi_a is the constant 0: it is its value and runs no rounds
        model = lending_mc()
        expr = parse("T[g->gy] / T[gbar->gbary]", model.states)
        mon = build_mc_monitor(expr, 0.06, "pointwise", seed=17)
        assert len(mon._parts) == 3
        subs = mon._parts[1:]
        assert [m.delta for m in subs] == [pytest.approx(0.02)] * 2
        assert [list(m.layout.targets) for m in subs] == [["g"], ["gbar"]]
        assert mon._parts[0] == 0.0
        step = function_source(mon, "next")
        assert step.count("n0 += 1") == step.count("n1 += 1") == 1
        assert "n2" not in mon.source

    def test_constant_parts_leave_the_denominator_monitored(self):
        # a normalized denominator is a monomial of transition variables, so
        # a division never has only constant parts
        mon = build_mc_monitor(parse("0.5 + 1 / T[1->2]", ALPHA), 0.05, "pointwise")
        assert mon._parts[:2] == [0.5, 1.0]
        assert list(mon._parts[2].layout.targets) == ["1"]

    @pytest.mark.parametrize("text", ["1e999 / T[1->3]", "1e300 * 1e300 / T[1->3]"])
    def test_infinite_constant_part_rejected_at_build(self, text):
        with pytest.raises(ConfigError, match="not finite"):
            build_mc_monitor(parse(text, ALPHA), 0.05, "pointwise")

    def test_division_free_short_circuits(self):
        expr = parse("T[1->2] + T[1->3]", ALPHA)
        mon = build_mc_monitor(expr, 0.05, "pointwise", seed=18)
        assert len(mon._parts) == 1 and mon._parts[0].delta == 0.05

    def test_inconclusive_until_all_parts_ready(self):
        model = lending_mc()
        expr = parse("T[g->gy] / T[gbar->gbary]", model.states)
        mon = build_mc_monitor(expr, 0.05, "pointwise", seed=19)
        names = list(model.states)
        verdicts = [mon.next(names[c]) for c in simulate_states(model, 60, 1, seed=20)[0]]
        kinds = [v.kind for v in verdicts]
        assert kinds[0] == "inconclusive"
        assert "inconclusive" not in kinds[-1:]

    def test_zero_crossing_denominator_is_unbounded(self):
        v_a = Interval.point(0.0)
        v_b = Interval(0.1, 0.2)
        v_c = Interval(-0.1, 0.3)
        combined = v_a + v_b / v_c
        assert not combined.is_bounded

    def test_estimate_converges_to_ratio(self):
        model = lending_mc(p_grant_g=0.8, p_grant_gbar=0.6)
        expr = parse("T[g->gy] / T[gbar->gbary]", model.states)
        mon = build_mc_monitor(expr, 0.05, "pointwise", seed=21)
        names = list(model.states)
        v = mon.feed([names[c] for c in simulate_states(model, 150_000, 1, seed=22)[0]])
        assert v.point == pytest.approx(0.8 / 0.6, abs=0.05)
        assert v.interval.contains(0.8 / 0.6)


def function_source(mon, name):
    """The source of the function ``name`` that the monitor's ``make()`` defines."""
    node, = (node for node in ast.walk(ast.parse(mon.source))
             if isinstance(node, ast.FunctionDef) and node.name == name)
    return ast.get_source_segment(mon.source, node)


def calls_in(source):
    return {ast.unparse(node.func) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)}


def test_ratio_step_is_one_function():
    """The ratio's step looks its symbol up once for both parts and runs both
    rounds and the fold inline: its only calls are the sampler, the
    half-widths, the buffers' ``len`` and ``clear``, and the error and value
    constructors.  ``run`` runs the same step and adds only the line's
    ``strip``, the writer and the reading and writing back of the cells."""
    states = lending_mc().states
    mon = build_mc_monitor(parse("T[gbar->gbary] / T[g->gy]", states), 0.05, "uniform",
                           alphabet=states)
    step, run = function_source(mon, "next"), function_source(mon, "run")
    for source in (step, run):
        assert source.count("codes[symbol]") == 1
        assert source.count("codes[") == 1
    calls = {"extract", "halfwidth0", "halfwidth1", "len", "z0.clear", "z1.clear",
             "EventError", "Interval", "Verdict"}
    assert calls_in(step) == calls
    assert calls_in(run) == calls | {"load", "store", "line.strip", "emit"}


class TestStreamDeterminism:
    def test_same_seed_same_verdicts(self):
        model = three_state()
        names = list(model.states)
        stream = [names[c] for c in simulate_states(model, 3000, 1, seed=23)[0]]
        runs = []
        for _ in range(2):
            mon = build_mc_monitor(parse("T[1->2] * T[1->3]", ALPHA), 0.05,
                                   "pointwise", seed=99)
            verdicts = [mon.next(s) for s in stream]
            runs.append([(v.kind, None if v.interval is None else (v.interval.lo, v.interval.hi))
                         for v in verdicts])
        assert runs[0] == runs[1]

    def test_uniform_mode_wider_than_pointwise(self):
        model = three_state()
        names = list(model.states)
        stream = [names[c] for c in simulate_states(model, 5000, 1, seed=24)[0]]
        mon_p = build_mc_monitor(parse("T[1->2]", ALPHA), 0.05, "pointwise", seed=1)
        mon_u = build_mc_monitor(parse("T[1->2]", ALPHA), 0.05, "uniform", seed=1)
        vp = mon_p.feed(stream)
        vu = mon_u.feed(stream)
        assert mon_p.n_samples == mon_u.n_samples
        assert mon_p.mean == mon_u.mean
        assert vu.interval.width >= vp.interval.width


class TestVerdictDigests:
    """Every bit of every verdict of the monitor on a seeded stationary
    ``lending_mc`` stream: sha256 of its ``t lo hi point kind`` lines, with the
    round count, the buffer peak and the register count."""

    SPECS = {
        "ratio": "T[gbar->gbary] / T[g->gy]",
        "mixed": "0.3 + T[g->gy] * T[g->ybar] / T[gbar->gbary]",
        "difference": "T[g->gy] * T[g->ybar] - T[gbar->gbary]",
        "constant": "0.1",
        # g has two relevant targets and is not the source a round waits on,
        # so its draws are not forced and the order of its targets counts
        "targets": "T[g->gy] - T[g->ybar] + T[gbar->gbary] * T[gbar->ybar]",
    }
    # (spec, mode) -> (digest, n_samples, peak_buffer, register_count)
    EXPECTED = {
        ("ratio", "pointwise"):
            ("8f505868f9868c8c4253f89c24341dbedb11549d4e5eec71521b5b694926bc7d", 512, 1, 16),
        ("ratio", "uniform"):
            ("592e634da3965d6a92dd812cd8747561898ec481b07fc669810c73e57fb2e7c9", 512, 1, 16),
        ("mixed", "pointwise"):
            ("d7c3a28d7a4e29c23a350b2e0eb86dbf84d4778fc6a32706b524de116227ac81", 283, 2, 18),
        ("mixed", "uniform"):
            ("93967af4737642058038cb8bdfed48c4027266f642a3241603fdad38e436fef2", 283, 2, 18),
        ("difference", "pointwise"):
            ("b3da3b6f0fd566ab0d3c273ff1b694698c483285e66d9c4b3b1196e13feee552", 283, 2, 14),
        ("difference", "uniform"):
            ("afc0f441bfb7dba11f73b0e2015a339ae90212c1c1c049fa82035ca414deab37", 283, 2, 14),
        ("constant", "pointwise"):
            ("b7f7e44c168e83a8cb16ca4b14dcc8e7442f208f21994afd63f754e9c8126e40", 3999, 0, 5),
        ("constant", "uniform"):
            ("b7f7e44c168e83a8cb16ca4b14dcc8e7442f208f21994afd63f754e9c8126e40", 3999, 0, 5),
        ("targets", "pointwise"):
            ("6f97ea425f4b96143417f398b8b517a002b0578672b37e32fdba4c0aafb59ce4", 256, 2, 16),
        ("targets", "uniform"):
            ("06749b93f00b36958018c94cc7293969ef961b6b915a75aee5fe43dba842d234", 256, 2, 16),
    }

    @pytest.fixture(scope="class")
    def stream(self):
        return list(simulate(lending_mc(), 4000, 5, start="stationary"))

    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize("mode", ["pointwise", "uniform"])
    def test_verdict_digest(self, stream, spec, mode):
        states = lending_mc().states
        mon = build_mc_monitor(parse(self.SPECS[spec], states), 0.05, mode, seed=3,
                               alphabet=states)
        lines = []
        for t, s in enumerate(stream, start=1):
            v = mon.next(s)
            lo, hi = (None, None) if v.interval is None else (v.interval.lo, v.interval.hi)
            lines.append(f"{t} {lo!r} {hi!r} {v.point!r} {v.kind}\n")
        digest = hashlib.sha256("".join(lines).encode()).hexdigest()
        got = (digest, mon.n_samples, mon.peak_buffer, mon.register_count())
        assert got == self.EXPECTED[(spec, mode)]
