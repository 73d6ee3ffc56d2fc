import hashlib
import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmon import markov
from fairmon.errors import ConfigError, EvaluationError, ModelError
from fairmon.markov import (ObservationModel, mixing_time_bound, simulate,
                            simulate_states, stationary_distribution,
                            truth_value, truth_value_bse, truth_value_pse)
from fairmon.speclang import parse
from fairmon.experiments import (admission_mc, hypercube_pomc, lending_mc,
                                 lending_pomc, social_burden_text, two_state)


def chain(matrix, labels=None, initial=None):
    m = np.asarray(matrix, dtype=float)
    k = m.shape[0]
    states = tuple(str(i + 1) for i in range(k))
    return ObservationModel(
        states=states,
        transitions=m,
        initial=np.asarray(initial if initial is not None else [1.0] + [0.0] * (k - 1)),
        labels=labels or {s: s for s in states},
    )


class TestValidation:
    def test_row_sum_enforced(self):
        with pytest.raises(ModelError):
            chain([[0.5, 0.4], [0.5, 0.5]])

    def test_initial_must_be_distribution(self):
        with pytest.raises(ModelError):
            chain([[0.5, 0.5], [0.5, 0.5]], initial=[0.7, 0.7])

    @pytest.mark.parametrize("transitions, initial", [
        ([[math.nan, 1.0], [0.5, 0.5]], [1.0, 0.0]),
        ([[0.5, 0.5], [0.5, 0.5]], [math.nan, 1.0])])
    def test_nan_entries_rejected(self, transitions, initial):
        with pytest.raises(ModelError):
            chain(transitions, initial=initial)

    def test_labeling_must_be_total(self):
        with pytest.raises(ModelError):
            ObservationModel(states=("1",), transitions=np.array([[1.0]]),
                             initial=np.array([1.0]), labels={})

    def test_json_round_trip(self):
        model = lending_mc()
        again = ObservationModel.from_json(model.to_json())
        assert again.states == model.states
        assert np.allclose(again.transitions, model.transitions)
        assert again.labels == model.labels

    def test_fully_observed_detection(self):
        assert lending_mc().is_fully_observed
        assert not lending_pomc().is_fully_observed
        assert not hypercube_pomc(3).is_fully_observed


class TestStationary:
    def test_two_state_asymmetric(self):
        model = chain([[0.9, 0.1], [0.2, 0.8]])
        sd = stationary_distribution(model)
        assert sd.pi == pytest.approx([2 / 3, 1 / 3], abs=1e-12)
        assert sd.residual <= 1e-10

    def test_symmetric(self):
        model = chain([[0.5, 0.5], [0.5, 0.5]])
        assert stationary_distribution(model).pi == pytest.approx([0.5, 0.5])

    def test_hypercube_uniform(self):
        sd = stationary_distribution(hypercube_pomc(3))
        assert sd.pi == pytest.approx([1 / 8] * 8, abs=1e-12)

    def test_fixpoint_and_normalization_for_all_builtins(self):
        for model in [lending_mc(), lending_pomc(), admission_mc(4), hypercube_pomc(4)]:
            sd = stationary_distribution(model)
            assert np.abs(sd.pi @ model.transitions - sd.pi).sum() <= 1e-10
            assert sd.pi.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(sd.pi >= 0)

    def test_reducible_chain_rejected(self):
        with pytest.raises(ModelError):
            stationary_distribution(chain([[1.0, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("make", [two_state, lending_pomc])
    def test_svd_fallback_when_lstsq_is_inaccurate(self, make, monkeypatch):
        model = make()
        expect = (np.array([2 / 3, 1 / 3]) if make is two_state
                  else stationary_distribution(model).pi)

        def point_mass(a, b, rcond=None):
            return np.eye(a.shape[1])[0], None, None, None

        monkeypatch.setattr(np.linalg, "lstsq", point_mass)
        sd = stationary_distribution(model)
        assert sd.pi == pytest.approx(expect, abs=1e-12)
        assert sd.residual <= 1e-10


class TestMixing:
    def test_one_step_mixer(self):
        assert mixing_time_bound(chain([[0.5, 0.5], [0.5, 0.5]])).tau_mix == 1.0

    def test_hypercube_within_coupon_collector_bound(self):
        tau = mixing_time_bound(hypercube_pomc(3)).tau_mix
        assert 1.0 <= tau <= math.ceil(3 * (math.log(3) + math.log(4)))

    def test_periodic_chain_rejected(self):
        with pytest.raises(ModelError):
            mixing_time_bound(chain([[0.0, 1.0], [1.0, 0.0]]))

    def test_admission_is_periodic(self):
        assert admission_mc(2).period() == 3
        with pytest.raises(ModelError):
            mixing_time_bound(admission_mc(2))

    def test_lending_pomc_aperiodic(self):
        model = lending_pomc()
        assert model.period() == 1
        assert mixing_time_bound(model).tau_mix >= 1.0


class TestSimulation:
    def test_deterministic_cycle(self):
        model = chain([[0.0, 1.0], [1.0, 0.0]], labels={"1": "a", "2": "b"})
        stream = list(simulate(model, 7, seed=1))
        assert stream == ["a", "b", "a", "b", "a", "b", "a"]

    def test_same_seed_same_stream(self):
        model = lending_pomc()
        a = list(simulate(model, 500, seed=7))
        b = list(simulate(model, 500, seed=7))
        assert a == b

    def test_different_seed_differs(self):
        model = lending_pomc()
        assert list(simulate(model, 500, seed=7)) != list(simulate(model, 500, seed=8))

    def test_stationary_start_requires_irreducible(self):
        with pytest.raises(ModelError):
            list(simulate(chain([[1.0, 0.0], [0.0, 1.0]]), 5, seed=0, start="stationary"))

    def test_lending_mc_first_transition_is_group(self):
        stream = list(simulate(lending_mc(), 3, seed=0))
        assert stream[0] == "init"
        assert stream[1] in ("g", "gbar")

    def test_empirical_transition_frequencies(self):
        # visited >= 1e4 times: empirical frequencies within 3 binomial sigmas
        model = lending_mc()
        states = simulate_states(model, 200_000, 1, seed=11)[0]
        m = model.transitions
        for i in range(model.n_states):
            visits = np.flatnonzero(states[:-1] == i)
            if len(visits) < 10_000:
                continue
            nxt = states[visits + 1]
            for j in range(model.n_states):
                p = m[i, j]
                if p in (0.0, 1.0):
                    assert np.all((nxt == j) == (p == 1.0))
                    continue
                freq = float(np.mean(nxt == j))
                sigma = math.sqrt(p * (1 - p) / len(visits))
                assert abs(freq - p) <= 3 * sigma

    def test_hypercube_state_frequencies_uniform(self):
        model = hypercube_pomc(3)
        states = simulate_states(model, 1_000_000, 1, seed=3, start="stationary")[0]
        freqs = np.bincount(states, minlength=8) / states.size
        assert np.abs(freqs - 1 / 8).max() <= 0.01

    def test_vectorized_runs_are_independent(self):
        model = hypercube_pomc(3)
        runs = simulate_states(model, 100, 3, seed=5)
        assert not np.array_equal(runs[0], runs[1])

    def test_pinned_state_runs(self):
        runs = simulate_states(lending_pomc(), 30, 3, seed=5, start="stationary")
        assert runs.tolist() == [
            [5, 0, 2, 6, 0, 4, 5, 0, 3, 6, 0, 2, 6, 0, 1,
             6, 0, 4, 5, 0, 3, 6, 0, 1, 6, 0, 4, 6, 0, 2],
            [5, 0, 0, 3, 6, 0, 1, 6, 0, 4, 5, 0, 1, 6, 0,
             2, 6, 0, 4, 6, 0, 1, 6, 0, 3, 6, 0, 2, 6, 0],
            [3, 6, 0, 1, 6, 0, 3, 5, 0, 0, 2, 5, 0, 4, 6,
             0, 1, 6, 0, 3, 5, 0, 4, 6, 0, 3, 6, 0, 1, 6]]

    def test_pinned_label_stream(self):
        assert list(simulate(lending_mc(), 30, seed=0)) == [
            "init", "g", "gy", "z", "init", "gbar", "ybar", "init", "gbar",
            "ybar", "init", "g", "ybar", "init", "gbar", "gbary", "zbar",
            "init", "g", "gy", "z", "init", "gbar", "ybar", "init", "g",
            "ybar", "init", "gbar", "ybar"]

    @pytest.mark.parametrize("start", ["initial", "stationary"])
    def test_simulate_labels_its_single_run(self, start):
        # 10^4 steps span several blocks of drawn uniforms
        model = lending_pomc()
        states = simulate_states(model, 10_000, 1, seed=9, start=start)[0]
        assert states[4090:4102].tolist() == [5, 0, 4, 6, 0, 2, 5, 0, 3, 6, 0, 3]
        labels = [model.labels[model.states[s]] for s in states]
        assert list(simulate(model, 10_000, seed=9, start=start)) == labels


def reference_states(model, steps, runs, seed, start="initial"):
    """The per-step bisect walk the sampler reproduces: one uniform per run for
    the start state, then step-major uniforms, drawn here in one call (PCG64
    gives the same numbers however the draws are chunked)."""
    lam = model.initial if start == "initial" else stationary_distribution(model).pi
    cum0 = np.cumsum(lam)[:-1].tolist()
    rows = np.cumsum(model.transitions, axis=1)[:, :-1].tolist()
    rng = np.random.default_rng(seed)
    state = [bisect_right(cum0, u) for u in rng.random(runs).tolist()]
    us = rng.random((steps, runs)).T.tolist()
    out = np.empty((runs, steps), dtype=np.int64)
    for r in range(runs):
        s = state[r]
        for i, u in enumerate(us[r]):
            out[r, i] = s
            s = bisect_right(rows[s], u)
    return out


@st.composite
def sparse_chains(draw):
    """Row-stochastic chains of 1-12 states with zero entries, repeated
    breakpoints, and rows whose float cumsum may end below 1.0."""
    k = draw(st.integers(min_value=1, max_value=12))
    weights = np.array(draw(st.lists(st.lists(st.sampled_from([0, 0, 1, 1, 2, 7]),
                                              min_size=k, max_size=k),
                                     min_size=k, max_size=k)), dtype=float)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    if draw(st.booleans()):
        weights[0] = 1.0  # a row of k equal shares: its cumsum ends below 1.0 for k = 10
    states = tuple(str(i) for i in range(k))
    initial = weights[-1] / weights[-1].sum()
    return ObservationModel(states, weights / weights.sum(axis=1, keepdims=True),
                            initial, {s: s for s in states})


class TestSamplerBits:
    # sha256 of every shape below, both starts and two seeds, recorded with the
    # per-step bisect walk the sampler replaced
    DIGESTS = {
        "lending_pomc": "c9fc8754d9f253c63195abbcbd37fa043aaab276b2348923acc38bfaf59867e1",
        "lending_mc": "a17c0be62c87a7bd0a1113e09d5d79bd523f8677dd2bfc5b119bfa72030bab23",
        "admission_mc": "75a83b9f84cde55e5a4860b97336c1a4cb08ef91023e920770d73b341e4b714e",
        "hypercube_pomc": "e9f09bc07b15b022fedd487fd3ac1a8780a1b21a4a31690de5bc5925e3e76baf",
    }
    MODELS = {"lending_pomc": lending_pomc, "lending_mc": lending_mc,
              "admission_mc": lambda: admission_mc(9), "hypercube_pomc": lambda: hypercube_pomc(3)}
    SHAPES = [(0, 3), (1, 1), (7, 3), (4097, 1), (10000, 25), (3000, 200), (500, 5000)]

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_pinned_digest(self, name):
        model = self.MODELS[name]()
        h = hashlib.sha256()
        for start in ("initial", "stationary"):
            for seed in (3, 2026):
                for steps, runs in self.SHAPES:
                    states = simulate_states(model, steps, runs, seed, start=start)
                    h.update(f"{states.shape}{states.dtype}".encode())
                    h.update(states.tobytes())
                    h.update("\n".join(simulate(model, steps, seed, start=start)).encode())
        assert h.hexdigest() == self.DIGESTS[name]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_chains(), st.sampled_from([0, 1, 2, 3, 5, 25, 60, 129, 4095, 4096, 4097]),
           st.integers(min_value=0, max_value=9000), st.integers(min_value=0, max_value=2**32))
    def test_matches_the_bisect_walk(self, model, runs, steps, seed):
        steps = min(steps, 20_000 // max(runs, 1))  # straddles _BLOCK for few runs
        assert np.array_equal(simulate_states(model, steps, runs, seed),
                              reference_states(model, steps, runs, seed))

    @pytest.mark.parametrize("core", ["_walk", "_gather", "_compose"])
    @pytest.mark.parametrize("runs", [0, 1, 3, 40])
    def test_every_core_gives_the_walk(self, monkeypatch, core, runs):
        # each core on its own, whichever one _core would pick, on a dense
        # 70-state chain: 70 * 69 distinct breakpoints, more than _BLOCK
        k = 70
        m = np.random.default_rng(4).random((k, k))
        states = tuple(str(i) for i in range(k))
        model = ObservationModel(states, m / m.sum(axis=1, keepdims=True),
                                 np.full(k, 1.0 / k), {s: s for s in states})
        assert k * (k - 1) > markov._BLOCK
        monkeypatch.setattr(markov, "_core", lambda n, runs, span: getattr(markov, core))
        assert np.array_equal(simulate_states(model, 5000, runs, 8),
                              reference_states(model, 5000, runs, 8))

    @pytest.mark.parametrize("runs", [1, 2, 700])
    def test_uniform_on_a_breakpoint(self, monkeypatch, runs):
        # a uniform equal to a breakpoint moves past it, as bisect_right does;
        # random draws almost never land there, so these are fed in directly
        make = np.random.default_rng
        pool = np.array([0.0, 0.25, 0.5, 0.75, 0.5, 0.25 - 2**-54, 0.75, 0.25])

        class Fixed:  # every third draw, counted across calls, from the pool
            def __init__(self, seed):
                self.rng, self.drawn = make(seed), 0

            def random(self, size):
                u = self.rng.random(size)
                at = self.drawn + np.arange(u.size)
                self.drawn += u.size
                return np.where(at % 3 == 0, pool[at // 3 % 8], u.ravel()).reshape(u.shape)

        model = chain([[0.25, 0.25, 0.25, 0.25], [0.5, 0.0, 0.0, 0.5],
                       [0.0, 0.75, 0.0, 0.25], [0.25, 0.0, 0.5, 0.25]])
        expect = reference_states(model, 9000 // runs, runs, 5)
        monkeypatch.setattr(np.random, "default_rng", Fixed)
        fixed = reference_states(model, 9000 // runs, runs, 5)
        assert not np.array_equal(fixed, expect)
        assert np.array_equal(simulate_states(model, 9000 // runs, runs, 5), fixed)

    def test_negative_sizes_rejected_at_the_call(self):
        model = lending_pomc()
        with pytest.raises(ConfigError, match="steps"):
            simulate(model, -5, 0)  # not only when iterated
        with pytest.raises(ConfigError, match="steps"):
            simulate_states(model, -1, 3, 0)
        with pytest.raises(ConfigError, match="runs"):
            simulate_states(model, 10, -2, 0)
        assert simulate_states(model, 10, 0, 0).shape == (0, 10)
        assert simulate_states(model, 0, 4, 0).shape == (4, 0)


class TestOracles:
    def test_pse_direct_entry(self):
        model = chain([[0.2, 0.3, 0.5], [1, 0, 0], [1, 0, 0]])
        assert truth_value_pse(model, parse("T[1->2]", model.states)) == pytest.approx(0.3)
        assert truth_value_pse(model, parse("T[1->2] + T[1->3]", model.states)) == pytest.approx(0.8)

    def test_pse_rejects_partially_observed(self):
        with pytest.raises(ModelError):
            truth_value_pse(hypercube_pomc(3), parse("T[000->001]", []))

    def test_pse_zero_denominator(self):
        model = chain([[0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(EvaluationError):
            truth_value_pse(model, parse("1 / T[2->2]", model.states))

    def test_lending_demographic_parity_formula(self):
        model = lending_mc(p_grant_g=0.8, p_grant_gbar=0.6)
        expr = parse("T[g->gy] - T[gbar->gbary]", model.states)
        assert truth_value_pse(model, expr) == pytest.approx(0.2, abs=1e-12)

    def test_single_symbol_probability_is_pi_mass(self):
        model = chain([[0.9, 0.1], [0.2, 0.8]], labels={"1": "a", "2": "b"})
        value = truth_value_bse(model, parse("P[a]", ["a", "b"]))
        assert value == pytest.approx(2 / 3, abs=1e-12)

    def test_two_window_on_symmetric_chain(self):
        model = chain([[0.5, 0.5], [0.5, 0.5]], labels={"1": "a", "2": "b"})
        value = truth_value_bse(model, parse("P[a a]", ["a", "b"]))
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_constant_one_atom(self):
        doc = """
alphabet: a b
atom one arity 1 range [1,1] { default -> 1 }
property: F[one]
"""
        from fairmon.speclang import parse_spec_file
        spec = parse_spec_file(doc)
        model = chain([[0.5, 0.5], [0.5, 0.5]], labels={"1": "a", "2": "b"})
        assert truth_value_bse(model, spec.expression) == pytest.approx(1.0)

    def test_hypercube_symmetry_gives_zero(self):
        model = hypercube_pomc(3)
        expr = parse("P[a a] - P[b b]", ["a", "b"], allow_transvars=False)
        assert truth_value_bse(model, expr) == pytest.approx(0.0, abs=1e-12)

    def test_conditional_lending_pomc_matches_parameters(self):
        model = lending_pomc(credit_g=(0.6, 0.4), grant_g=(0.3, 0.8),
                             credit_gbar=(0.5, 0.5), grant_gbar=(0.25, 0.7))
        expr = parse("P[y | a] - P[y | b]", model.alphabet, allow_transvars=False)
        expect = (0.6 * 0.3 + 0.4 * 0.8) - (0.5 * 0.25 + 0.5 * 0.7)
        assert truth_value_bse(model, expr) == pytest.approx(expect, abs=1e-12)

    def test_window_cap_enforced(self):
        model = chain([[0.5, 0.5], [0.5, 0.5]], labels={"1": "a", "2": "b"})
        expr = parse("P[a a a a a a a]", ["a", "b"])
        with pytest.raises(EvaluationError):
            truth_value_bse(model, expr, window_cap=6)

    def test_social_burden_expected_investment(self):
        model = admission_mc(levels=9)
        expr = parse(social_burden_text(9), model.states)
        invest = np.arange(1.0, 11.0) / np.arange(1.0, 11.0).sum()
        assert truth_value(model, expr) == pytest.approx(
            float(np.arange(10) @ invest), abs=1e-12)

    def test_division_by_zero_in_bse(self):
        model = two_state(labels={"s0": "a", "s1": "b"})
        with pytest.raises(EvaluationError):
            truth_value_bse(model, parse("1 / (P[a] - P[a])", ["a", "b"]))


class TestFinitarySemantics:
    def test_window_average_converges_to_model_value(self):
        model = hypercube_pomc(3)
        expr = parse("P[a a] - P[b b]", ["a", "b"], allow_transvars=False)
        truth = truth_value_bse(model, expr)
        codes = model.label_codes()[simulate_states(model, 1_000_000, 1, seed=2,
                                                    start="stationary")[0]]
        aa = (codes[:-1] == 0) & (codes[1:] == 0)
        bb = (codes[:-1] == 1) & (codes[1:] == 1)

        def finitary(t):
            return aa[:t - 1].mean() - bb[:t - 1].mean()

        gaps = [abs(finitary(t) - truth) for t in (10**3, 10**6)]
        assert gaps[-1] <= 0.01
        assert gaps[-1] <= gaps[0]
