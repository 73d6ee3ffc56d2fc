"""The four workloads: their inputs, their commands and their in-process passes.

Each workload is a closed loop: one process, one stream, the next event only
after the previous verdict.  The package is driven from outside: the CLI (or
the coverage user script) runs in a fresh process per invocation, and the
in-process passes call the package's public functions.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import inputs
from golden import verdict_record

HERE = Path(__file__).resolve().parent
PROC_TIMEOUT_S = 90.0


@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    code: int
    out: str
    err: str
    span: list  # first and last change of the watched offset, [seconds, offset] each


def run_proc(cmd, env, out_path: Path, watch: str = "-") -> Proc:
    """Run one command to completion; wall time and peak RSS of that process alone."""
    err_path = out_path.with_suffix(".err")
    launcher = [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(out_path),
                str(err_path), str(PROC_TIMEOUT_S), watch, "--", *cmd]
    res = subprocess.run(launcher, env=env, capture_output=True, text=True,
                         timeout=PROC_TIMEOUT_S + 30)
    if res.returncode:
        raise RuntimeError(f"launcher failed ({res.returncode}): {res.stderr}")
    m = json.loads(res.stdout)
    return Proc(m["wall_s"], m["maxrss_kb"] / 1024.0, m["code"],
                out_path.read_text(), err_path.read_text(), m["span"])


@contextmanager
def no_gc():
    """Keep the cyclic collector out of timed in-process loops.

    The benchmark process holds every sample and verdict it has gathered, so
    a collection there costs in proportion to the harness's heap, not the
    monitor's; left on, it would set the latency tail.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Workload:
    name = ""
    # Golden stream that the full invocation's output is checked against.
    stream = "cli"
    # What shows the full invocation streaming: its output, an input file, or nothing.
    watch = "stdout"
    # In-process passes per round.
    passes = 0

    def __init__(self, root: Path, work: Path, slot: int, scale: str):
        self.work = work
        self.slot = slot
        self.size = inputs.SCALES[scale]
        # Commands run as a user would run them: no PYTHON* settings (such as
        # unbuffered output or no bytecode cache) leak in from the caller.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = str(root / "src")
        self._runs = 0

    def cli(self, *args) -> list:
        return [sys.executable, "-m", "fairmon.cli", *map(str, args)]

    def run(self, cmd) -> Proc:
        self._runs += 1
        return run_proc(cmd, self.env, self.work / f"{self.name}-{self._runs}.out",
                        str(self.watch))

    def streaming_rate(self, proc: Proc) -> float:
        """Events per second of a full invocation between the first and the last
        change of its watched offset: all of its stream but the first buffer,
        without start-up or exit."""
        if len(proc.span) < 2 or proc.span[1][0] <= proc.span[0][0]:
            raise RuntimeError(f"{self.name}: no streaming observed, span {proc.span}")
        if self.watch == "stdout":
            total = len(proc.out.encode())
        else:
            total = Path(self.watch).stat().st_size
        (t0, p0), (t1, p1) = proc.span
        return (p1 - p0) / (t1 - t0) * self.events / total

    def prepare(self) -> None:
        """Write the input files the package will receive."""

    def records(self, out: str) -> list:
        return out.splitlines()


class MonitorWorkload(Workload):
    """`fairmon monitor` on a stream drawn by the benchmark's sampler."""

    model_name = ""
    spec_text = ""
    engine = ""

    def prepare(self) -> None:
        self.model_file = inputs.model_path(self.model_name)
        self.spec_file = self.work / f"{self.name}.spec"
        self.spec_file.write_text(self.spec_text)
        self.symbols = inputs.sample_stream(self.model_file, self.events, self.slot, self.name)
        self.stream_file = inputs.write_lines(self.work / f"{self.name}.events", self.symbols)
        if self.stride > 1:
            self.watch = self.stream_file  # little output: follow the input instead
        self.empty_file = inputs.write_lines(self.work / f"{self.name}.empty", [])

    def monitor_args(self) -> list:
        raise NotImplementedError

    def monitor_cmd(self, events_file: Path, stride: int) -> list:
        return self.cli("monitor", "--spec", self.spec_file, *self.monitor_args(),
                        "--stride", stride, "--events", events_file)

    def setup_cmd(self) -> list:
        return self.monitor_cmd(self.empty_file, self.stride)

    def full_cmd(self) -> list:
        return self.monitor_cmd(self.stream_file, self.stride)

    def build_monitor(self):
        """The monitor the CLI builds for these flags, built through the public API."""
        raise NotImplementedError

    def library_pass(self):
        """Per-call latency of ``monitor.next`` over the stream's prefix, and its verdicts."""
        monitor = self.build_monitor()
        nxt = monitor.next
        clock = time.perf_counter_ns
        lat = []
        verdicts = []
        with no_gc():
            for symbol in self.symbols[:self.lib_events]:
                t0 = clock()
                v = nxt(symbol)
                t1 = clock()
                lat.append(t1 - t0)
                verdicts.append(v)
        return lat, {"lib": [verdict_record(t, v) for t, v in enumerate(verdicts, start=1)]}


class PomcJsonl(MonitorWorkload):
    name = "pomc-jsonl"
    model_name = "lending_pomc"
    spec_text = inputs.POMC_SPEC
    engine = "pomc"
    stride = 1
    passes = 4

    @property
    def events(self) -> int:
        return self.size["pomc_events"]

    @property
    def lib_events(self) -> int:
        return self.size["pomc_lib"]

    def monitor_args(self) -> list:
        return ["--engine", "pomc", "--mode", "uniform", "--model", self.model_file]

    def build_monitor(self):
        from fairmon.markov import ObservationModel, mixing_time_bound
        from fairmon.pomc import build_pomc_monitor
        from fairmon.speclang.parser import parse_spec_file
        spec = parse_spec_file(self.spec_text, allow_transvars=False)
        model = ObservationModel.from_json(self.model_file.read_text())
        tau = mixing_time_bound(model).tau_mix
        return build_pomc_monitor(spec.expression, inputs.DELTA, "uniform", tau,
                                  alphabet=spec.alphabet)


class McRatio(MonitorWorkload):
    name = "mc-ratio"
    model_name = "lending_mc"
    spec_text = inputs.MC_SPEC
    engine = "mc"
    passes = 4

    @property
    def events(self) -> int:
        return self.size["mc_events"]

    @property
    def lib_events(self) -> int:
        return self.size["mc_lib"]

    @property
    def stride(self) -> int:
        return self.size["mc_stride"]

    def monitor_args(self) -> list:
        return ["--engine", "mc", "--mode", "uniform", "--seed", self.slot]

    def build_monitor(self):
        from fairmon.mc import build_mc_monitor
        from fairmon.speclang.parser import parse_spec_file
        spec = parse_spec_file(self.spec_text, allow_transvars=True)
        return build_mc_monitor(spec.expression, inputs.DELTA, "uniform", seed=self.slot,
                                alphabet=spec.alphabet)


class Simulate(Workload):
    """`fairmon simulate` from the stationary distribution to a file."""

    name = "simulate"
    passes = 4
    block = 10

    def prepare(self) -> None:
        self.model_file = inputs.model_path("lending_pomc")
        self.sim_seed = self.slot

    @property
    def events(self) -> int:
        return self.size["sim_steps"]

    @property
    def lib_events(self) -> int:
        return self.size["sim_lib"]

    def sim_cmd(self, steps: int) -> list:
        return self.cli("simulate", "--model", self.model_file, "--steps", steps,
                        "--seed", self.sim_seed, "--start", "stationary")

    def setup_cmd(self) -> list:
        return self.sim_cmd(0)

    def full_cmd(self) -> list:
        return self.sim_cmd(self.events)

    def library_pass(self):
        """Per-event latency of the single-run simulator, consumed in-process.

        One event takes about as long as a few reads of the clock, so events
        are timed in blocks of ``block``, and each block's mean is one sample.
        """
        from fairmon.markov import ObservationModel, simulate
        model = ObservationModel.from_json(self.model_file.read_text())
        gen = simulate(model, self.lib_events, self.sim_seed, start="stationary")
        nxt = gen.__next__
        clock = time.perf_counter_ns
        lat = []
        out = []
        with no_gc():
            for _ in range(self.lib_events // self.block):
                t0 = clock()
                for _ in range(self.block):
                    out.append(nxt())
                t1 = clock()
                lat.append((t1 - t0) / self.block)
        return lat, {"lib": out}


class Coverage(Workload):
    """`run_coverage` on lending_pomc, run as a user script in its own process.

    Each invocation runs a few short studies, one per seed, so that the
    study times are many short samples rather than a few long ones.
    """

    name = "coverage"
    stream = "report"
    watch = "-"

    def prepare(self) -> None:
        self.model_file = inputs.model_path("lending_pomc")
        self.spec_file = self.work / "coverage.spec"
        self.spec_file.write_text(inputs.POMC_SPEC)
        self.runs = self.size["cov_runs"]
        self.horizon = self.size["cov_horizon"]
        n = self.size["cov_studies"]
        self.study_seeds = [self.slot * n + i for i in range(n)]

    @property
    def events(self) -> int:
        """Run-steps of one study."""
        return self.runs * self.horizon

    def job_cmd(self, empty: bool) -> list:
        cmd = [sys.executable, str(HERE / "coverage_job.py"), "--model", str(self.model_file),
               "--spec", str(self.spec_file), "--runs", str(self.runs),
               "--horizon", str(self.horizon),
               "--seeds", ",".join(map(str, self.study_seeds))]
        return cmd + ["--empty"] if empty else cmd

    def setup_cmd(self) -> list:
        return self.job_cmd(True)

    def full_cmd(self) -> list:
        return self.job_cmd(False)

    def records(self, out: str) -> list:
        return [r for study in json.loads(out)["studies"] for r in report_records(study)]

    @staticmethod
    def study_times(out: str) -> list:
        return [study["study_s"] for study in json.loads(out)["studies"]]


def report_records(report) -> list:
    """A coverage report as records: the counts, then one line per checkpoint row."""
    return [json.dumps(report["coverage"], sort_keys=True)] + \
        [json.dumps(row, sort_keys=True) for row in report["rows"]]


WORKLOADS = {w.name: w for w in (PomcJsonl, McRatio, Coverage, Simulate)}
