import json

import pytest

from fairmon.cli import main
from fairmon.experiments import hypercube_pomc, lending_mc

LENDING_SPEC = """alphabet: init g gbar gy gbary ybar z zbar
property: T[g->gy] - T[gbar->gbary]
"""

HYPERCUBE_SPEC = """alphabet: a b
property: P[a a] - P[b b]
"""


@pytest.fixture
def lending_files(tmp_path):
    model = tmp_path / "lending.json"
    model.write_text(lending_mc().to_json())
    spec = tmp_path / "dp.spec"
    spec.write_text(LENDING_SPEC)
    return model, spec


@pytest.fixture
def hypercube_files(tmp_path):
    model = tmp_path / "cube.json"
    model.write_text(hypercube_pomc(3).to_json())
    spec = tmp_path / "tdp.spec"
    spec.write_text(HYPERCUBE_SPEC)
    return model, spec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_deterministic_bytes(self, capsys, hypercube_files):
        model, _ = hypercube_files
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "simulate", "--model", str(model),
                                   "--steps", "200", "--seed", "7")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert set(outs[0].split()) <= {"a", "b"}

    def test_lending_stream_starts_with_group(self, capsys, lending_files):
        model, _ = lending_files
        code, out, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "3", "--seed", "0")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "init"
        assert lines[1] in ("g", "gbar")

    def test_invalid_model_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"states\": [\"x\"]}")
        code, _, err = run_cli(capsys, "simulate", "--model", str(bad),
                               "--steps", "5")
        assert code == 2
        assert "error" in err


    def test_negative_steps_exits_2(self, capsys, hypercube_files):
        model, _ = hypercube_files
        code, out, err = run_cli(capsys, "simulate", "--model", str(model),
                                 "--steps", "-3")
        assert code == 2
        assert out == ""
        assert "--steps" in err

    def test_zero_steps_prints_nothing(self, capsys, hypercube_files):
        model, _ = hypercube_files
        code, out, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "0")
        assert (code, out) == (0, "")


class TestTruth:
    def test_lending_truth(self, capsys, lending_files):
        model, spec = lending_files
        code, out, _ = run_cli(capsys, "truth", "--model", str(model),
                               "--spec", str(spec))
        assert code == 0
        assert float(out) == pytest.approx(0.2, abs=1e-10)

    def test_hypercube_truth_is_zero(self, capsys, hypercube_files):
        model, spec = hypercube_files
        code, out, _ = run_cli(capsys, "truth", "--model", str(model),
                               "--spec", str(spec))
        assert code == 0
        assert abs(float(out)) < 1e-10


class TestMonitor:
    def test_mc_monitor_stream(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        events = tmp_path / "events.txt"
        run_cli(capsys, "simulate", "--model", str(model), "--steps", "3000",
                "--seed", "1")
        # regenerate to a file
        code, out, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "3000", "--seed", "1")
        events.write_text(out)
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "mc", "--delta", "0.05",
                               "--seed", "3", "--events", str(events))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 3000
        last = records[-1]
        assert last["verdict"] == "ok"
        assert last["lo"] <= 0.2 <= last["hi"]

    def test_stride_emits_exact_count(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        _, out, _ = run_cli(capsys, "simulate", "--model", str(model),
                            "--steps", "2000", "--seed", "2")
        events = tmp_path / "events.txt"
        events.write_text(out)
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "mc", "--stride", "100",
                               "--events", str(events))
        assert code == 0
        assert len(out.splitlines()) == 20

    def test_blank_lines_ignored(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\n\ng\n\ngy\n")
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "mc", "--events", str(events))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_unknown_event_exits_3_with_line(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\ng\nQ\n")
        code, _, err = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "mc", "--events", str(events))
        assert code == 3
        assert "line 3" in err

    def test_pomc_requires_tau_or_model(self, capsys, hypercube_files, tmp_path):
        _, spec = hypercube_files
        events = tmp_path / "events.txt"
        events.write_text("a\nb\n")
        code, _, err = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "pomc", "--events", str(events))
        assert code == 2
        assert "tau" in err

    def test_pomc_with_explicit_tau(self, capsys, hypercube_files, tmp_path):
        _, spec = hypercube_files
        events = tmp_path / "events.txt"
        events.write_text("a\nb\na\na\nb\n")
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "pomc", "--tau-mix", "7.45",
                               "--events", str(events))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["verdict"] == "inconclusive"
        assert records[-1]["verdict"] == "ok"

    def test_intersect_pointwise_pomc_exits_2(self, capsys, hypercube_files, tmp_path):
        _, spec = hypercube_files
        events = tmp_path / "events.txt"
        events.write_text("a\nb\n")
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec),
                                 "--engine", "pomc", "--tau-mix", "7.45",
                                 "--mode", "pointwise", "--intersect",
                                 "--events", str(events))
        assert code == 2
        assert out == ""
        assert "uniform" in err

    def test_intersect_uniform_pomc_accepted(self, capsys, hypercube_files, tmp_path):
        _, spec = hypercube_files
        events = tmp_path / "events.txt"
        events.write_text("a\nb\na\n")
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "pomc", "--tau-mix", "7.45",
                               "--mode", "uniform", "--intersect",
                               "--events", str(events))
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_intersect_with_mc_engine_exits_2(self, capsys, lending_files, tmp_path):
        _, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\ng\n")
        for mode in ("pointwise", "uniform"):
            code, out, err = run_cli(capsys, "monitor", "--spec", str(spec),
                                     "--engine", "mc", "--mode", mode,
                                     "--intersect", "--events", str(events))
            assert code == 2
            assert out == ""
            assert "--intersect" in err

    def test_transvar_under_pomc_engine_is_config_error(self, capsys,
                                                        lending_files, tmp_path):
        model, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\n")
        code, _, err = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "pomc", "--tau-mix", "2",
                               "--events", str(events))
        assert code == 2

    def test_csv_format(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\ng\ngy\n")
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "mc", "--format", "csv",
                               "--events", str(events))
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "t,lo,hi,point,verdict"
        assert lines[1].startswith("1,")

    def test_bad_delta_exits_2(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\n")
        code, _, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                             "--engine", "mc", "--delta", "1.5",
                             "--events", str(events))
        assert code == 2

    def test_stream_determinism_same_bytes(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        _, stream, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "1500", "--seed", "5")
        events = tmp_path / "events.txt"
        events.write_text(stream)
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                                   "--engine", "mc", "--seed", "11",
                                   "--events", str(events))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("mode", ["pointwise", "uniform"])
    def test_mc_constant_divisor_same_as_product(self, capsys, tmp_path, mode):
        model = tmp_path / "three.json"
        model.write_text(json.dumps({
            "states": ["1", "2", "3"],
            "transitions": [[0.2, 0.5, 0.3], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            "initial": [1.0, 0.0, 0.0],
            "labels": {"1": "1", "2": "2", "3": "3"}}))
        _, stream, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "2000", "--seed", "4")
        events = tmp_path / "events.txt"
        events.write_text(stream)
        outs = []
        for prop in ("T[1->2] / 2", "0.5 * T[1->2]"):
            spec = tmp_path / "half.spec"
            spec.write_text(f"alphabet: 1 2 3\nproperty: {prop}\n")
            code, out, err = run_cli(capsys, "monitor", "--spec", str(spec),
                                     "--engine", "mc", "--mode", mode,
                                     "--seed", "3", "--events", str(events))
            assert code == 0, err
            outs.append(out)
        assert len(outs[0].splitlines()) == 2000
        assert outs[0] == outs[1]


class TestCompareBounds:
    def test_header_and_rows(self, capsys):
        code, out, _ = run_cli(capsys, "compare-bounds", "--t-range", "10:1000:3",
                               "--methods", "mc-pointwise,mc-uniform")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "t,mc-pointwise,mc-uniform"
        assert len(lines) == 4
        for line in lines[1:]:
            t, p, u = line.split(",")
            assert float(u) >= float(p)

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(capsys, "compare-bounds", "--methods", "bogus")
        assert code == 2


class TestExperimentCommand:
    def test_experiment_writes_manifest(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "--name", "fig4-uniform",
                               "--out-dir", str(tmp_path))
        assert code == 0
        manifest = json.loads(out)
        assert manifest["name"] == "fig4-uniform"
        assert (tmp_path / "fig4-uniform" / "series.csv").exists()

    def test_experiment_overrides(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "experiment", "--name", "hypercube",
                               "--out-dir", str(tmp_path),
                               "--set", "runs=4", "--set", "horizon=400")
        assert code == 0
        report = json.loads((tmp_path / "hypercube" / "report.json").read_text())
        assert report["coverage"]["runs"] == 4

    def test_unknown_name_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--name", "nope",
                               "--out-dir", str(tmp_path))
        assert code == 2


class TestUniformMode:
    def test_uniform_intervals_wider_than_pointwise(self, capsys, lending_files, tmp_path):
        model, spec = lending_files
        _, stream, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "2000", "--seed", "9")
        events = tmp_path / "events.txt"
        events.write_text(stream)
        widths = {}
        for mode in ("pointwise", "uniform"):
            code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                                   "--engine", "mc", "--mode", mode,
                                   "--seed", "4", "--events", str(events))
            assert code == 0
            last = json.loads(out.splitlines()[-1])
            widths[mode] = last["hi"] - last["lo"]
        assert widths["uniform"] >= widths["pointwise"]
