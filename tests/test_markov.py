import math

import numpy as np
import pytest

from fairmon.errors import EvaluationError, ModelError
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
