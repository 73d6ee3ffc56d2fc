import json
import math

import numpy as np
import pytest

from fairmon.errors import ConfigError, ModelError
from fairmon.markov import stationary_distribution, truth_value_pse
from fairmon.speclang import expression_size, parse
from fairmon.experiments import (admission_mc, fig3_ratio_series,
                                 fig4_uniform_series, gen_model,
                                 hypercube_pomc, lending_mc, lending_pomc,
                                 nonconvergent_block_stream, run_coverage,
                                 run_named_experiment, run_nonconvergent,
                                 social_burden_text, timing_table,
                                 two_state)


class TestGenerators:
    def test_hypercube_shape(self):
        model = hypercube_pomc(3)
        assert model.n_states == 8
        assert np.allclose(model.transitions.sum(axis=1), 1.0)
        assert stationary_distribution(model).pi == pytest.approx([1 / 8] * 8)

    def test_hypercube_neighbor_mass(self):
        model = hypercube_pomc(4)
        row = model.transitions[0]
        assert row[0] == 0.5
        assert sorted(row[row > 0])[:-1] == [pytest.approx(1 / 8)] * 4

    def test_lending_equal_grants_has_zero_parity(self):
        model = lending_mc(p_grant_g=0.7, p_grant_gbar=0.7)
        expr = parse("T[g->gy] - T[gbar->gbary]", model.states)
        assert truth_value_pse(model, expr) == pytest.approx(0.0, abs=1e-15)

    def test_lending_parity_equals_parameter_difference(self):
        model = lending_mc(p_grant_g=0.8, p_grant_gbar=0.6)
        expr = parse("T[g->gy] - T[gbar->gbary]", model.states)
        assert truth_value_pse(model, expr) == pytest.approx(0.2, abs=1e-12)

    def test_admission_topology(self):
        model = admission_mc(levels=4)
        assert model.n_states == 3 + 5
        i = model.state_index("2")
        assert model.transitions[i, model.state_index("init")] == 1.0

    def test_admission_social_burden_size(self):
        model = admission_mc(levels=9)
        expr = parse(social_burden_text(9), model.states)
        assert expression_size(expr) == 19

    def test_generated_models_validate(self):
        for model in (hypercube_pomc(2), hypercube_pomc(3), lending_mc(),
                      lending_pomc(), admission_mc(3)):
            assert model.n_states >= 2
            assert model.is_irreducible()

    def test_gen_model_dispatch(self):
        assert gen_model("hypercube", n=2).n_states == 4
        with pytest.raises(ModelError):
            gen_model("unknown-model")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ModelError):
            lending_mc(p_grant_g=0.0)
        with pytest.raises(ModelError):
            lending_pomc(credit_g=(0.5, 0.4))
        with pytest.raises(ModelError):
            admission_mc(levels=2, invest_g=(1.0, 0.5, 0.2, 0.1))


class TestNonconvergent:
    def test_rows_match_reference_stream(self):
        rows = run_nonconvergent(16)
        stream = list(nonconvergent_block_stream(2**16 - 1))
        csum = np.cumsum(stream)
        for k, t_k, mean in rows:
            assert t_k == 2**k - 1
            assert mean == pytest.approx(csum[t_k - 1] / t_k, abs=1e-15)

    def test_even_boundaries_are_exactly_one_third(self):
        for k, t_k, mean in run_nonconvergent(20):
            if k % 2 == 0:
                assert mean == pytest.approx(1 / 3, abs=1e-15)

    def test_odd_boundaries_approach_two_thirds(self):
        rows = {k: mean for k, _, mean in run_nonconvergent(31)}
        for k in range(13, 31, 2):
            assert abs(rows[k] - 2 / 3) <= 2.0 ** -k * 2

    def test_limits_alternate(self):
        rows = run_nonconvergent(30)
        means = [m for _, _, m in rows]
        assert means[-1] == pytest.approx(1 / 3, abs=1e-6)
        assert means[-2] == pytest.approx(2 / 3, abs=1e-6)

    def test_k_max_validated(self):
        with pytest.raises(ConfigError):
            run_nonconvergent(0)
        with pytest.raises(ConfigError):
            run_nonconvergent(41)


class TestRatioSeries:
    def test_first_ratio_is_one(self):
        rows = fig3_ratio_series(n_max=3)
        assert rows[0]["ratio"] == pytest.approx(1.0, rel=1e-12)

    def test_ratio_matches_closed_form(self):
        rows = fig3_ratio_series(n_max=10, delta=0.05)
        for row in rows:
            n = row["n"]
            expect = n * math.sqrt(math.log(2 * n / 0.05) / math.log(40))
            assert row["ratio"] == pytest.approx(expect, rel=1e-9)

    def test_ratio_nondecreasing(self):
        ratios = [r["ratio"] for r in fig3_ratio_series(n_max=10)]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))


class TestFig4Series:
    def test_three_series_emitted(self):
        rows = fig4_uniform_series(t_values=[10, 100, 1000])
        assert set(rows[0]) == {"t", "stitched", "poly_union", "exp_union"}

    def test_stitched_below_lifts_on_window(self):
        rows = fig4_uniform_series(t_values=np.unique(
            np.logspace(3, 6, 31).astype(int)))
        for row in rows:
            assert row["stitched"] < row["poly_union"]
            assert row["stitched"] < row["exp_union"]


class TestCoverageRunner:
    def test_small_pomc_coverage_report(self):
        model = hypercube_pomc(3)
        expr = parse("P[a a] - P[b b]", ["a", "b"], allow_transvars=False)
        rep = run_coverage(model, expr, "pomc", runs=10, horizon=2000,
                           delta=0.05, seed=4)
        assert rep.coverage["runs"] == 10
        assert rep.coverage["pointwise_final"] == 10
        assert rep.coverage["uniform_all"] == 10
        assert rep.rows[-1]["t"] == 2000
        assert rep.rows[-1]["lo_min"] <= 0.0 <= rep.rows[-1]["hi_max"]

    def test_small_mc_coverage_report(self):
        model = lending_mc()
        expr = parse("T[g->gy] - T[gbar->gbary]", model.states)
        rep = run_coverage(model, expr, "mc", runs=8, horizon=4000,
                           delta=0.05, seed=5)
        assert rep.coverage["pointwise_final"] == 8
        assert rep.coverage["uniform_all"] == 8
        truth = truth_value_pse(model, expr)
        assert rep.truth == pytest.approx(truth)

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            run_coverage(hypercube_pomc(2), parse("P[a]", ["a", "b"]),
                         "hybrid", runs=1, horizon=10, delta=0.05, seed=0)


class TestTimingTable:
    def test_rows_and_sizes(self):
        rows = timing_table(events=20_000, seed=1)
        assert [r["size"] for r in rows] == [1, 5, 19]
        for row in rows:
            assert row["mean_us"] > 0
            assert row["registers"] > 0
            assert row["outcomes"] > 0

    def test_stream_is_labels_not_state_names(self):
        # the monitor's alphabet comes from the labels, so must its stream
        model = two_state(labels={"s0": "x", "s1": "y"})
        rows = timing_table(entries=[("relabelled", model, "T[x->y]")],
                            events=20_000, chunk=10_000)
        assert rows[0]["outcomes"] > 0


class TestNamedExperiments:
    def test_nonconvergent_writes_artifacts(self, tmp_path):
        manifest = run_named_experiment("nonconvergent", seed=0, out_dir=tmp_path)
        base = tmp_path / "nonconvergent"
        assert (base / "report.json").exists()
        assert (base / "series.csv").exists()
        assert (base / "manifest.json").exists()
        assert manifest["name"] == "nonconvergent"
        rows = json.loads((base / "report.json").read_text())["rows"]
        assert rows[0]["mean"] == 1.0

    def test_hypercube_experiment_small(self, tmp_path):
        manifest = run_named_experiment("hypercube", seed=0, out_dir=tmp_path,
                                        runs=5, horizon=500)
        report = json.loads((tmp_path / "hypercube" / "report.json").read_text())
        assert report["coverage"]["runs"] == 5
        assert manifest["params"]["runs"] == 5

    def test_fig3_experiment(self, tmp_path):
        run_named_experiment("fig3-ratio", seed=0, out_dir=tmp_path)
        text = (tmp_path / "fig3-ratio" / "series.csv").read_text()
        assert text.splitlines()[0] == "n,ratio,baseline_halfwidth,direct_halfwidth"

    def test_unknown_experiment(self, tmp_path):
        with pytest.raises(ConfigError):
            run_named_experiment("mystery", seed=0, out_dir=tmp_path)
