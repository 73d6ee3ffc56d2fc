import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmon.cli import _parse_t_range, _writers, main
from fairmon.intervals import Interval
from fairmon.pomc import INCONCLUSIVE, Verdict
from fairmon.experiments import hypercube_pomc, lending_mc, lending_pomc
from fairmon.markov import mixing_time_bound, simulate
from test_pomc_monitor import TABLE_SPEC

LENDING_SPEC = """alphabet: init g gbar gy gbary ybar z zbar
property: T[g->gy] - T[gbar->gbary]
"""

NAN_RANGE = "the expression's range is undefined: it contains NaN, as inf - inf or 0 * inf do"

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


def assert_usage_error(capsys, option, *argv):
    """argparse rejects ``option``: exit 2, nothing on stdout, the option named."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {option}:" in captured.err.splitlines()[-1]


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

    def test_negative_seed_exits_2(self, capsys, hypercube_files):
        model, _ = hypercube_files
        assert_usage_error(capsys, "--seed", "simulate", "--model", str(model),
                           "--steps", "3", "--seed", "-1")

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

    # engine flags, spec and the model whose stream the spec reads
    BAD_EVENT_CASES = {
        "pomc": (["--engine", "pomc", "--tau-mix", "1"],
                 "alphabet: s y n a b\nproperty: P[y | a] - P[y | b]\n", lending_pomc),
        "mc": (["--engine", "mc"], LENDING_SPEC, lending_mc),
        "mc-ratio": (["--engine", "mc"],
                     "alphabet: init g gbar gy gbary ybar z zbar\n"
                     "property: T[gbar->gbary] / T[g->gy]\n", lending_mc),
    }

    @pytest.mark.parametrize("case", sorted(BAD_EVENT_CASES))
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("bad,message", [
        (b"q", "symbol 'q' is not in the alphabet"),
        (b"\xff\xfe", "bytes that are not UTF-8"),
        (b"g\xe9", "bytes that are not UTF-8"),
    ])
    @pytest.mark.parametrize("stdin", [False, True])
    def test_bad_event_exits_3_after_the_records_before_it(
            self, capsys, monkeypatch, tmp_path, case, fmt, bad, message, stdin):
        flags, spec_text, model = self.BAD_EVENT_CASES[case]
        spec = tmp_path / "s.spec"
        spec.write_text(spec_text)
        good = "".join(s + "\n" for s in simulate(model(), 300, 5, start="stationary"))
        before = tmp_path / "before.txt"
        before.write_text(good)
        argv = ["monitor", "--spec", str(spec), *flags, "--mode", "uniform", "--format", fmt]
        code, expected, err = run_cli(capsys, *argv, "--events", str(before))
        assert (code, err) == (0, "")
        # a blank line before the bad one counts in its line number
        stream = good.encode() + b"\n" + bad + b"\n" + good.encode()
        if stdin:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stream),
                                                               encoding="utf-8"))
        else:
            events = tmp_path / "events.txt"
            events.write_bytes(stream)
            argv += ["--events", str(events)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == expected
        assert err == f"error: line 302: {message}\n"

    def test_closed_pipe_is_quiet(self, hypercube_files, tmp_path):
        _, spec = hypercube_files
        events = tmp_path / "events.txt"
        events.write_text("a\nb\n" * 20000)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        proc = subprocess.Popen(
            [sys.executable, "-m", "fairmon.cli", "monitor", "--spec", str(spec),
             "--engine", "pomc", "--tau-mix", "1", "--format", "csv",
             "--events", str(events)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()  # the reader goes away, as ``| head -3`` does
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert head[0] == b"t,lo,hi,point,verdict\n"
        assert err == b""

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

    def test_intersect_reports_inconsistent_stream(self, capsys, tmp_path):
        spec = tmp_path / "pa.spec"
        spec.write_text("alphabet: a b\nproperty: P[a]\n")
        events = tmp_path / "events.txt"
        events.write_text("a\n" * 5000 + "b\n" * 2000)
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec),
                               "--engine", "pomc", "--tau-mix", "1",
                               "--mode", "uniform", "--intersect",
                               "--stride", "1000", "--events", str(events))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["verdict"] for r in records] == ["ok"] * 6 + ["inconsistent"]
        assert records[-1]["lo"] is None and records[-1]["hi"] is None
        assert records[-1]["point"] == pytest.approx(5000 / 7000)

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

    @pytest.mark.parametrize("flag", [["--tau-mix", "7.45"], ["--model", "MODEL"]])
    def test_pomc_only_flag_with_mc_engine_exits_2(self, capsys, lending_files, tmp_path,
                                                   flag):
        model, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\nnot-a-state\n")  # exit 3 if it were read
        flag = [str(model) if a == "MODEL" else a for a in flag]
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), "--engine", "mc",
                                 *flag, "--events", str(events))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert flag[0] in err

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

    @pytest.mark.parametrize("engine, spec_text, stream", [
        ("pomc", "alphabet: a b\natom w arity 1 range [-1e200,1e200] { a -> 1; default -> 0 }\n"
                 "property: F[w]\n", "a\nb\n"),
        ("mc", "alphabet: g gy\nproperty: 1e200 * T[g->gy]\n", "g\ngy\n"),
    ], ids=["pomc", "mc"])
    def test_range_whose_squared_width_overflows_exits_2(self, capsys, tmp_path, engine,
                                                         spec_text, stream):
        spec = tmp_path / "wide.spec"
        spec.write_text(spec_text)
        events = tmp_path / "events.txt"
        events.write_text(stream)
        tau = ["--tau-mix", "1"] if engine == "pomc" else []
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), "--engine", engine,
                                 *tau, "--events", str(events))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "overflows" in err

    @pytest.mark.parametrize("mode", ["pointwise", "uniform"])
    def test_half_width_that_overflows_is_inf_without_a_warning(self, capsys, tmp_path, mode):
        # (b - a) ** 2 = 1e306 is a float, but t * 1e306 * 9 * tau is not
        spec = tmp_path / "wide.spec"
        spec.write_text("alphabet: a b\natom w arity 1 range [0,1e153] { a -> 1; default -> 0 }\n"
                        "property: F[w]\n")
        events = tmp_path / "events.txt"
        events.write_text("a\nb\n")
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), "--engine", "pomc",
                                 "--tau-mix", "35", "--mode", mode, "--events", str(events))
        assert (code, err) == (0, "")
        assert [json.loads(line)["hi"] for line in out.splitlines()] == [1e153, 1e153]

    def test_negative_seed_exits_2(self, capsys, lending_files, tmp_path):
        _, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\n")
        assert_usage_error(capsys, "--seed", "monitor", "--spec", str(spec), "--engine", "mc",
                           "--seed", "-1", "--events", str(events))

    @pytest.mark.parametrize("tau", ["0.5", "nan"])
    @pytest.mark.parametrize("stream", ["", "a\nb\na\n"])
    def test_invalid_tau_exits_2_before_any_event(self, capsys, hypercube_files, tmp_path,
                                                  tau, stream):
        _, spec = hypercube_files
        events = tmp_path / "events.txt"
        events.write_text(stream)
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), "--engine", "pomc",
                                 "--tau-mix", tau, "--events", str(events))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "mixing-time" in err

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

    def test_events_on_standard_input(self, capsys, monkeypatch, lending_files, tmp_path):
        # simulate | monitor: the same records as from a file
        model, spec = lending_files
        _, stream, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "500", "--seed", "6")
        events = tmp_path / "events.txt"
        events.write_text(stream)
        _, expected, _ = run_cli(capsys, "monitor", "--spec", str(spec), "--events", str(events))
        stdin = io.TextIOWrapper(io.BytesIO(stream.encode()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 500
        assert out == expected

    def test_pomc_model_gives_its_mixing_time(self, capsys, hypercube_files, tmp_path):
        model, spec = hypercube_files
        tau = mixing_time_bound(hypercube_pomc(3)).tau_mix
        _, stream, _ = run_cli(capsys, "simulate", "--model", str(model),
                               "--steps", "300", "--seed", "8")
        events = tmp_path / "events.txt"
        events.write_text(stream)
        outs = []
        for source in (["--model", str(model)], ["--tau-mix", repr(tau)]):
            code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), "--engine", "pomc",
                                     *source, "--events", str(events))
            assert (code, err) == (0, "")
            outs.append(out)
        assert len(outs[0].splitlines()) == 300
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("prop, message", [
        # the range [inf, inf] has a NaN squared width, so no half-width exists
        ("1e999", "sigma^2 must be nonnegative, got nan"),
        # a round of the part 1e300 * 1e300 * T[1->2] can give inf * 0
        ("1e300 * 1e300 * T[1->2] / T[1->3]", NAN_RANGE),
    ], ids=["1e999", "1e300 * 1e300 * T[1->2] / T[1->3]"])
    def test_mc_range_with_nan_square_exits_2_at_build(self, capsys, tmp_path, prop, message):
        spec = tmp_path / "inf.spec"
        spec.write_text(f"alphabet: 1 2 3\nproperty: {prop}\n")
        events = tmp_path / "events.txt"
        events.write_text("1\n2\n1\n3\n" * 3)
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), "--engine", "mc",
                                 "--events", str(events))
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("engine, prop", [("mc", "1e999 - 1e999 + T[1->2]"),
                                              ("pomc", "1e999 - 1e999 + P[1]")])
    def test_nan_range_exits_2_at_build(self, capsys, tmp_path, engine, prop):
        # inf - inf makes the a-priori range NaN, for either engine's range
        spec = tmp_path / "nan.spec"
        spec.write_text(f"alphabet: 1 2 3\nproperty: {prop}\n")
        events = tmp_path / "events.txt"
        events.write_text("1\n2\n1\n3\n" * 3)
        tau = ["--tau-mix", "2"] if engine == "pomc" else []
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), "--engine", engine,
                                 *tau, "--events", str(events))
        assert (code, out, err) == (2, "", f"error: {NAN_RANGE}\n")

    @pytest.mark.parametrize("option, value", [("--stride", "0"), ("--spec", "no-such.spec")],
                             ids=["zero-stride", "missing-spec"])
    def test_bad_monitor_argument_exits_2(self, capsys, lending_files, tmp_path, option, value):
        _, spec = lending_files
        events = tmp_path / "events.txt"
        events.write_text("init\ng\n")
        code, out, err = run_cli(capsys, "monitor", "--spec", str(spec), option, value,
                                 "--events", str(events))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


class TestMonitorOutputDigests:
    """Every byte of ``fairmon monitor --engine pomc --tau-mix 1``, recorded once.

    The digests were taken before the monitor and the writer were rewritten
    and are never regenerated.  4000 stationary lending_pomc events; the
    table spec's intervals leave its range, so its digests see half-width
    bits, while ``P[y | a] - P[y | b]`` clips to [-1, 1] at this length.
    """

    SPECS = {
        "conditional": "alphabet: s y n a b\nproperty: P[y | a] - P[y | b]\n",
        "table": TABLE_SPEC,
    }
    # (spec, format, mode, intersect) -> sha256 hex digest of standard output
    DIGESTS = {
        ("conditional", "jsonl", "pointwise", False):
            "ff794163a15bbf313719a91079ec034dace92dc4010b41bf01c7afc7fe43bd89",
        ("conditional", "jsonl", "uniform", False):
            "ff794163a15bbf313719a91079ec034dace92dc4010b41bf01c7afc7fe43bd89",
        ("conditional", "jsonl", "uniform", True):
            "ff794163a15bbf313719a91079ec034dace92dc4010b41bf01c7afc7fe43bd89",
        ("conditional", "csv", "pointwise", False):
            "611d61e1fbe637fae2834e5d8d81d36988549ddabcc4f0f4adaeaa3d61a7ad8f",
        ("conditional", "csv", "uniform", False):
            "611d61e1fbe637fae2834e5d8d81d36988549ddabcc4f0f4adaeaa3d61a7ad8f",
        ("conditional", "csv", "uniform", True):
            "611d61e1fbe637fae2834e5d8d81d36988549ddabcc4f0f4adaeaa3d61a7ad8f",
        ("table", "jsonl", "pointwise", False):
            "4f6f33a5c5568e7d107ddd9a26d1e4d8a2ea249b093c51ef1654969243c62785",
        ("table", "jsonl", "uniform", False):
            "e115778022e364b7ba2160abdbc27ce7f5e31fb9fb7f0f0e923f18a54151c0ce",
        ("table", "jsonl", "uniform", True):
            "3e856a8b86ff83b0c4553ae6d4af0ee284abca95d373c5705ff2febfeb91a1bc",
        ("table", "csv", "pointwise", False):
            "eb49aa73d5db5e1bea6332c2ab28063fdd57ed378a5f376a39aea3c705e4bf58",
        ("table", "csv", "uniform", False):
            "efe119347d5ac63f23df14d5060997622e7fc48067468c8815cb9c2939e51cdb",
        ("table", "csv", "uniform", True):
            "f3dfd1a4be8327856d3c024ad8935c5fdd8a748f4937735a0acb4da7c87be84a",
    }

    @pytest.fixture(scope="class")
    def events(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("digests") / "events.txt"
        path.write_text("".join(s + "\n" for s in
                                simulate(lending_pomc(), 4000, 5, start="stationary")))
        return path

    @pytest.mark.parametrize("spec", sorted(SPECS))
    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    @pytest.mark.parametrize("mode,intersect", [("pointwise", False), ("uniform", False),
                                                ("uniform", True)])
    def test_output_digest(self, capsys, tmp_path, events, spec, fmt, mode, intersect):
        spec_file = tmp_path / "p.spec"
        spec_file.write_text(self.SPECS[spec])
        code, out, _ = run_cli(capsys, "monitor", "--spec", str(spec_file),
                               "--engine", "pomc", "--tau-mix", "1", "--mode", mode,
                               "--format", fmt, "--events", str(events),
                               *(["--intersect"] if intersect else []))
        assert code == 0
        assert len(out.splitlines()) == 4000 + (fmt == "csv")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.DIGESTS[(spec, fmt, mode, intersect)]


EMIT_VERDICTS = [
    INCONCLUSIVE,
    Verdict(Interval(-math.inf, math.inf), None),
    Verdict(Interval(-math.inf, 0.5), 0.25),
    Verdict(Interval(-0.5, math.inf), math.inf),
    Verdict(Interval(-0.0, 0.0), -0.0),
    Verdict(Interval(5e-324, 1e16), 0.1 + 0.2),
    Verdict(Interval(-1e16, -5e-324), 1e16),
    Verdict(None, 0.1 + 0.2, consistent=False),
    Verdict(Interval(math.inf, math.inf), math.inf),
    Verdict(Interval(-math.inf, -math.inf), -math.inf),
    # numpy floats print as the floats they equal, not as their own repr
    Verdict(Interval(np.float64(-0.25), np.float64(0.1 + 0.2)), np.float64(1 / 3)),
    Verdict(Interval(np.float64(-math.inf), np.float64(5e-324)), np.float64(math.nan)),
    Verdict(Interval(np.float64(-0.0), np.float64(1e300)), None, consistent=False),
]


def written(fmt, t, verdict):
    """What the writers of ``fmt`` write for ``verdict`` at ``t``: ``emit``'s
    record, which must be ``record``'s for a consistent verdict with an interval."""
    out, numbers = io.StringIO(), io.StringIO()
    _writers(out.write, fmt)[1](t, verdict)
    if verdict.interval is not None and verdict.consistent:
        _writers(numbers.write, fmt)[0](t, verdict.interval.lo, verdict.interval.hi,
                                         verdict.point)
        assert numbers.getvalue() == out.getvalue()
    return out.getvalue()


class TestEmit:
    """A JSONL record is the bytes of ``json.dumps``, a CSV row the ``repr`` of
    each number; non-finite values are null in JSONL and empty in CSV."""

    @staticmethod
    def finite(x):
        return None if x is None or not math.isfinite(x) else x

    def reference(self, t, verdict):
        iv = verdict.interval
        lo, hi = (None, None) if iv is None else (self.finite(iv.lo), self.finite(iv.hi))
        return json.dumps({"t": t, "lo": lo, "hi": hi, "point": self.finite(verdict.point),
                           "verdict": verdict.kind}) + "\n"

    def reference_csv(self, t, verdict):
        iv = verdict.interval
        cells = [None, None] if iv is None else [iv.lo, iv.hi]
        cells = ["" if x is None else repr(float(x))
                 for x in map(self.finite, cells + [verdict.point])]
        return ",".join([str(t), *cells, verdict.kind]) + "\n"

    @pytest.mark.parametrize("verdict", EMIT_VERDICTS)
    def test_jsonl_line_equals_json_dumps(self, verdict):
        assert written("jsonl", 4321, verdict) == self.reference(4321, verdict)

    @pytest.mark.parametrize("verdict", EMIT_VERDICTS)
    def test_csv_row(self, verdict):
        assert written("csv", 4321, verdict) == self.reference_csv(4321, verdict)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.none() | st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)),
           st.none() | st.floats(), st.booleans(), st.booleans(), st.integers(1, 2**63))
    @example((-0.0, 0.0), -0.0, True, False, 1)
    @example((5e-324, math.inf), -5e-324, True, False, 2)
    @example((-math.inf, -math.inf), math.inf, False, True, 3)
    @example((-1.0, 1.0), None, True, True, 4)
    @example((-1.0, 1.0), 0.25, False, False, 5)
    def test_any_verdict_matches_the_reference(self, ends, point, consistent, numpy, t):
        as_float = np.float64 if numpy else float
        iv = None if ends is None else Interval(*map(as_float, sorted(ends)))
        verdict = Verdict(iv, None if point is None else as_float(point), consistent)
        for fmt, reference in (("jsonl", self.reference), ("csv", self.reference_csv)):
            assert written(fmt, t, verdict) == reference(t, verdict)


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

    @pytest.mark.parametrize("option,value,method", [
        ("--sigma-sq", "nan", "mc-pointwise"),
        ("--sigma-sq", "nan", "pomc-uniform"),
        ("--sigma-sq", "-1", "pomc-uniform"),
        ("--tau-mix", "nan", "pomc-uniform"),
        ("--tau-mix", "0.5", "pomc-pointwise"),
    ])
    def test_invalid_parameter_exits_2(self, capsys, option, value, method):
        code, out, err = run_cli(capsys, "compare-bounds", option, value,
                                 "--methods", method, "--t-range", "10:10:1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_non_integer_t_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "compare-bounds", "--t-range", "a:b:c")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "--t-range" in err

    @pytest.mark.parametrize("t_range,methods", [
        (f"1:{10**400}:5", "mc-pointwise"),  # stop / start
        (f"{10**400}:{10**401}:1", "mc-pointwise"),  # 2.0 * t
        (f"1:{10**300}:2", "pomc-uniform"),  # 2.0 * (t - n1) ** 2
        (f"1:10:{10**400}", "mc-pointwise"),  # 1.0 / (points - 1)
    ], ids=["stop-over-start", "huge-start", "pomc-square", "huge-points"])
    def test_huge_t_range_exits_2(self, capsys, t_range, methods):
        code, out, err = run_cli(capsys, "compare-bounds", "--t-range", t_range,
                                 "--methods", methods)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "--t-range" in err

    @staticmethod
    def every_point(start, stop, points):
        """The grid's distinct values from a loop over every point."""
        if points == 1:
            return [start]
        ratio = (stop / start) ** (1.0 / (points - 1))
        return sorted({max(1, round(start * ratio ** i)) for i in range(points)})

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 10**6), st.integers(0, 200) | st.integers(0, 10**15),
           st.integers(1, 40) | st.integers(1, 5000))
    @example(1, 9, 3_000)
    @example(10**15, 1, 7)
    @example(2**53 - 5, 5, 200)
    def test_t_range_grid_is_the_loop_over_every_point(self, start, extra, points):
        text = f"{start}:{start + extra}:{points}"
        assert _parse_t_range(text) == self.every_point(start, start + extra, points)

    @pytest.mark.parametrize("points", [10**15, 2**53])
    def test_t_range_costs_distinct_values_not_points(self, capsys, points):
        began = time.perf_counter()
        code, out, err = run_cli(capsys, "compare-bounds", "--t-range", f"1:10:{points}",
                                 "--methods", "mc-pointwise")
        assert time.perf_counter() - began < 1.0
        assert (code, err) == (0, "")
        ts = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert ts[0] == 1 and ts == sorted(set(ts)) and ts[-1] <= 10


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

    def test_negative_seed_exits_2(self, capsys, tmp_path):
        assert_usage_error(capsys, "--seed", "experiment", "--name", "hypercube",
                           "--out-dir", str(tmp_path), "--seed", "-1")
        assert not any(tmp_path.iterdir())

    def test_unknown_name_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "experiment", "--name", "nope",
                               "--out-dir", str(tmp_path))
        assert code == 2

    def test_non_integer_override_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "experiment", "--name", "lending-pomc",
                                 "--out-dir", str(tmp_path), "--set", "runs=abc")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "runs" in err
        assert not any(tmp_path.iterdir())

    def test_override_without_value_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "experiment", "--name", "hypercube",
                                 "--out-dir", str(tmp_path), "--set", "runs")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and "key=value" in err
        assert not any(tmp_path.iterdir())

    def test_unknown_override_key_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "experiment", "--name", "lending-pomc",
                                 "--out-dir", str(tmp_path), "--set", "bogus=1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "bogus" in err and "runs, horizon, delta" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("name, override, word", [
        ("lending-pomc", "runs=-1", "runs"), ("lending-mc", "runs=-2", "runs"),
        ("hypercube", "runs=0", "runs"), ("table1-timing", "events=0", "events"),
        ("table1-timing", "events=-5", "events")])
    def test_bad_size_exits_2(self, capsys, tmp_path, name, override, word):
        code, out, err = run_cli(capsys, "experiment", "--name", name,
                                 "--out-dir", str(tmp_path), "--set", override)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:") and word in err
        assert not any(tmp_path.iterdir())


def _model_with(**fields):
    """A one-state model file's text with some fields replaced."""
    return json.dumps({"states": ["x"], "transitions": [[1.0]], "initial": [1.0],
                       "labels": {"x": "a"}, **fields})


class TestUnusableInputs:
    """A path the CLI cannot open, a spec or model file that is not UTF-8, a
    malformed model and an empty method list each exit 2 with one line."""

    # each case: files to write under tmp_path (None makes a directory), then
    # the arguments, in which {name} is the path of that file
    CASES = {
        "monitor-spec-is-a-directory": ({"d": None}, ["monitor", "--spec", "{d}"]),
        "monitor-events-is-a-directory": (
            {"d": None}, ["monitor", "--spec", "{spec}", "--events", "{d}"]),
        "truth-model-is-a-directory": (
            {"d": None}, ["truth", "--model", "{d}", "--spec", "{spec}"]),
        "experiment-out-dir-is-a-file": (
            {"f": "x"}, ["experiment", "--name", "fig3-ratio", "--out-dir", "{f}"]),
        "spec-not-utf8": ({"s": b"alphabet: a b\nproperty: P[\xff]\n"},
                          ["monitor", "--spec", "{s}", "--events", "{events}"]),
        "model-not-utf8": ({"m": b"\xff\xfe{}"}, ["simulate", "--model", "{m}", "--steps", "2"]),
        "model-not-an-object": ({"m": "5"}, ["simulate", "--model", "{m}", "--steps", "2"]),
        "model-labels-a-list": ({"m": _model_with(labels=[])},
                                ["simulate", "--model", "{m}", "--steps", "2"]),
        "model-transitions-a-string": ({"m": _model_with(transitions="abc")},
                                       ["simulate", "--model", "{m}", "--steps", "2"]),
        "model-ragged-rows": ({"m": _model_with(states=["x", "y"], labels={"x": "a", "y": "b"},
                                                initial=[1.0, 0.0],
                                                transitions=[[1.0], [0.5, 0.5]])},
                              ["truth", "--model", "{m}", "--spec", "{spec}"]),
        "compare-bounds-no-method": ({}, ["compare-bounds", "--methods", ","]),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_with_one_line(self, capsys, lending_files, tmp_path, case):
        files, argv = self.CASES[case]
        _, spec = lending_files
        paths = {"spec": spec, "events": tmp_path / "events.txt"}
        paths["events"].write_text("init\ng\n")
        for name, content in files.items():
            path = paths[name] = tmp_path / name
            if content is None:
                path.mkdir()
            elif isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content)
        code, out, err = run_cli(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error:")
        if case.endswith("not-utf8"):
            assert str(paths[case[0]]) in err


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
