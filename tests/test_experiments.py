import hashlib
import json
import math

import numpy as np
import pytest

from fairmon.errors import ConfigError, ModelError
from fairmon.markov import (simulate_states, stationary_distribution,
                            truth_value_pse)
from fairmon.mc import build_mc_monitor
from fairmon.speclang import expression_size, parse
from fairmon.experiments import (admission_mc, fig3_ratio_series,
                                 fig4_uniform_series,
                                 hypercube_pomc, lending_mc, lending_pomc,
                                 nonconvergent_block_stream, run_coverage,
                                 run_named_experiment, run_nonconvergent,
                                 social_burden_text, timing_table,
                                 two_state)
from fairmon.experiments import runners


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

    def test_reports_match_recorded_reports(self):
        # recorded before the two engines shared one study loop; mc rows have
        # since gained "covered", every other key must match exactly
        for (model, text, engine, seed), recorded in zip(PINNED_STUDIES, PINNED_REPORTS):
            expr = parse(text, model.alphabet, allow_transvars=engine == "mc")
            rep = run_coverage(model, expr, engine, runs=4, horizon=2000,
                               delta=0.05, seed=seed)
            assert_matches_recorded(json.loads(rep.to_json()), json.loads(recorded))

    def test_mc_rows_count_covered_runs(self):
        # recount with the pointwise monitor each run would have used
        model, text, _, seed = PINNED_STUDIES[1]
        expr = parse(text, model.states)
        rep = run_coverage(model, expr, "mc", runs=4, horizon=2000, delta=0.05, seed=seed)
        names = list(model.states)
        states = simulate_states(model, 2000, 4, seed, start="stationary")
        counts = {row["t"]: 0 for row in rep.rows}
        for r in range(4):
            mon = build_mc_monitor(expr, 0.05, "pointwise", seed=seed + 7919 * r)
            for t, c in enumerate(states[r], start=1):
                v = mon.next(names[c])
                if t in counts and v.interval is not None:
                    counts[t] += v.interval.contains(rep.truth)
        assert [row["covered"] for row in rep.rows] == list(counts.values())
        assert counts[10] < 4  # not every run has a verdict yet

    def test_mc_division_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*_, **__):
            raise AssertionError("simulated before rejecting the expression")

        monkeypatch.setattr(runners, "simulate_states", no_simulation)
        model = lending_mc()
        expr = parse("T[g->gy] / T[gbar->gbary]", model.states)
        with pytest.raises(ConfigError) as err:
            run_coverage(model, expr, "mc", runs=2, horizon=100, delta=0.05, seed=0)
        assert "trac" not in str(err.value)

    def test_checkpoints_outside_horizon_rejected(self):
        with pytest.raises(ConfigError):
            run_coverage(hypercube_pomc(2), parse("P[a]", ["a", "b"]), "pomc",
                         runs=1, horizon=10, delta=0.05, seed=0, checkpoints=[5, 20])


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


# each named experiment's parameters, in the order the error lists them
NAMED_PARAMETERS = {
    "fig3-ratio": "delta", "fig4-uniform": "delta",
    "lending-mc": "runs, horizon, delta", "admission": "runs, horizon, delta",
    "lending-pomc": "runs, horizon, delta", "hypercube": "runs, horizon, delta",
    "table1-timing": "events", "nonconvergent": "k_max",
}

# tiny sizes, given as text as ``fairmon experiment --set`` gives them
NAMED_OVERRIDES = {
    "fig3-ratio": {"delta": "0.1"}, "fig4-uniform": {"delta": "0.1"},
    "lending-mc": {"runs": "2", "horizon": "300"},
    "admission": {"runs": "2", "horizon": "300"},
    "lending-pomc": {"runs": "2", "horizon": "300"},
    "hypercube": {"runs": "2", "horizon": "300"},
    "table1-timing": {"events": "2000"}, "nonconvergent": {"k_max": "10"},
}

# recorded before the experiments' parameters were declared in one table
NAMED_DIGESTS = {
    "fig3-ratio": "956dadd93b4af5f5c2017d397ccf5f6e9273e0584099e33e86a1cb1bc67eb676",
    "fig4-uniform": "39c10e66f63a291215c7ff16ecab3b88532cc071722edd7bb5162e1edbcd1bc4",
    "lending-mc": "de249afd561bce8a5377f99a5d1ac32de190e85be30473f4bfb44db55e834ce3",
    "admission": "64d766b18e33f1a4fe5e6f8a5a99ff15c61868c71d5a1eaa45a96c35ddcc2ed8",
    "lending-pomc": "053cfcc033cd8de2bc30ba21c42e5f1e56dea5e17279a7304c70c0c26409c832",
    "hypercube": "05a2c9c36ef5613852ee9a93fe982ed573d7433527a48ac38401f2c504254313",
    "table1-timing": "28b9fa9db9ed3913b63904dc920bd3c413301e78233391e5b16514a8e1eb132d",
    "nonconvergent": "ea809c3d8361f8e792c5efd9644ce1696c3c675804077b7c3184da9a27002420",
}


def artifact_digest(base, name):
    """sha256 of ``report.json``, ``series.csv`` and the manifest without its
    wall-clock fields; of the timing table only the keys and the row count."""
    report = (base / "report.json").read_text()
    series = (base / "series.csv").read_text()
    manifest = json.loads((base / "manifest.json").read_text())
    del manifest["wall_clock_s"], manifest["per_step_s"]
    if name == "table1-timing":  # its timings differ from run to run
        doc = json.loads(report)
        report = [list(doc), [list(row) for row in doc["rows"]]]
        series = [series.splitlines()[0], series.count("\n")]
    return hashlib.sha256(json.dumps([report, series, manifest]).encode()).hexdigest()


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

    @pytest.mark.parametrize("name", list(NAMED_OVERRIDES))
    def test_artifacts_match_recorded(self, tmp_path, name):
        run_named_experiment(name, seed=3, out_dir=tmp_path, **NAMED_OVERRIDES[name])
        assert artifact_digest(tmp_path / name, name) == NAMED_DIGESTS[name]

    @pytest.mark.parametrize("name", list(NAMED_OVERRIDES))
    def test_unknown_parameter_lists_the_experiments_own(self, tmp_path, name):
        with pytest.raises(ConfigError) as err:
            run_named_experiment(name, seed=0, out_dir=tmp_path, bogus="1")
        assert str(err.value).endswith("known: " + NAMED_PARAMETERS[name])


def assert_matches_recorded(report, recorded, path="report"):
    """Every key of the recorded report is in the new one, with an equal value."""
    if isinstance(recorded, dict):
        for key, value in recorded.items():
            assert key in report, f"{path}.{key} missing"
            assert_matches_recorded(report[key], value, f"{path}.{key}")
    elif isinstance(recorded, list):
        assert len(report) == len(recorded), path
        for i, (new, old) in enumerate(zip(report, recorded)):
            assert_matches_recorded(new, old, f"{path}[{i}]")
    else:
        assert report == recorded, path


PINNED_STUDIES = [
    (lending_pomc(), "P[y | a] - P[y | b]", "pomc", 11),
    (lending_mc(), "T[g->gy] - T[gbar->gbary]", "mc", 12),
]

PINNED_REPORTS = ["""\
{
  "name": "coverage",
  "seed": 11,
  "params": {
    "engine": "pomc",
    "runs": 4,
    "horizon": 2000,
    "delta": 0.05,
    "tau_mix": 35.0,
    "start": "stationary"
  },
  "truth": 0.024999999999999467,
  "coverage": {
    "runs": 4,
    "pointwise_final": 4,
    "uniform_all": 4
  },
  "rows": [
    {
      "t": 10,
      "truth": 0.024999999999999467,
      "covered": 4,
      "point_min": -1.1111111111111112,
      "point_max": 0.5555555555555556,
      "lo_min": -1.0,
      "lo_max": -1.0,
      "hi_min": 1.0,
      "hi_max": 1.0
    },
    {
      "t": 100,
      "truth": 0.024999999999999467,
      "covered": 4,
      "point_min": -0.11223344556677894,
      "point_max": 0.2918069584736251,
      "lo_min": -1.0,
      "lo_max": -1.0,
      "hi_min": 1.0,
      "hi_max": 1.0
    },
    {
      "t": 1000,
      "truth": 0.024999999999999467,
      "covered": 4,
      "point_min": -0.006676307254341984,
      "point_max": 0.12125220458553793,
      "lo_min": -1.0,
      "lo_max": -1.0,
      "hi_min": 1.0,
      "hi_max": 1.0
    },
    {
      "t": 2000,
      "truth": 0.024999999999999467,
      "covered": 4,
      "point_min": 0.008687950181917037,
      "point_max": 0.09397117733894822,
      "lo_min": -1.0,
      "lo_max": -1.0,
      "hi_min": 1.0,
      "hi_max": 1.0
    }
  ],
  "timing": null
}
""",
"""\
{
  "name": "coverage",
  "seed": 12,
  "params": {
    "engine": "mc",
    "runs": 4,
    "horizon": 2000,
    "delta": 0.05,
    "start": "stationary"
  },
  "truth": 0.20000000000000007,
  "coverage": {
    "runs": 4,
    "pointwise_final": 4,
    "uniform_all": 4
  },
  "rows": [
    {
      "t": 10,
      "truth": 0.20000000000000007,
      "point_min": 0.0,
      "point_max": 1.0,
      "lo_min": -1.0,
      "lo_max": -1.0,
      "hi_min": 1.0,
      "hi_max": 1.0
    },
    {
      "t": 100,
      "truth": 0.20000000000000007,
      "point_min": -0.25,
      "point_max": 0.3333333333333333,
      "lo_min": -1.0,
      "lo_max": -0.522569946505872,
      "hi_min": 0.5341002756996854,
      "hi_max": 1.0
    },
    {
      "t": 1000,
      "truth": 0.20000000000000007,
      "point_min": 0.1367521367521368,
      "point_max": 0.24444444444444455,
      "lo_min": -0.1143609223395641,
      "lo_max": 0.01067090875900148,
      "hi_min": 0.3878651958438377,
      "hi_max": 0.4782179801298876
    },
    {
      "t": 2000,
      "truth": 0.20000000000000007,
      "point_min": 0.18283582089552233,
      "point_max": 0.22962962962962985,
      "lo_min": 0.01691731333803495,
      "lo_max": 0.06432677728449768,
      "hi_min": 0.3487543284530097,
      "hi_max": 0.39493248197476205
    }
  ],
  "timing": null
}
"""]
