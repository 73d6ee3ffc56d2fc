"""The traced run: per-layer metrics, timed from outside the package, with spans.

Spans are recorded in memory by the benchmark's own code around each call
into a layer (one span per set-up call, one per chunk of events in hot
loops, with the call count) and written out when the run ends.  Spans
inside the package are not recorded.

``METRICS`` is the prediction table: for each layer metric, the end-to-end
metric it should move, the workloads it is measured on, and the workloads
on which the prediction is no change.  When the traced workload is not in
``on``, the metric is measured on the inputs of the first workload in
``on``, so every traced run reports every metric.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from itertools import islice

import inputs
from workloads import no_gc, report_records
from golden import verdict_record

ALL = ("pomc-jsonl", "mc-ratio", "coverage", "simulate")
LAYERS = ("cli", "speclang", "pomc", "mc", "bounds", "intervals", "markov",
          "experiments.runners")

# name, unit, better, moves, on, no move on
METRICS = [
    ("speclang.parse_spec_file_ms", "ms", "lower", "setup_s", ("mc-ratio", "pomc-jsonl"), ()),
    ("speclang.decompose_division_ms", "ms", "lower", "setup_s", ("mc-ratio",), ("pomc-jsonl",)),
    ("pomc.build_ms", "ms", "lower", "setup_s", ("pomc-jsonl",), ("mc-ratio",)),
    ("mc.build_ms", "ms", "lower", "setup_s", ("mc-ratio",), ("pomc-jsonl",)),
    ("markov.mixing_time_bound_ms", "ms", "lower", "setup_s; events_per_s (small share)",
     ("pomc-jsonl", "coverage"), ()),
    ("markov.truth_value_ms", "ms", "lower", "events_per_s (small share)", ("coverage",), ()),
    ("pomc.next_us", "us", "lower", "events_per_s; verdict_us_*", ("pomc-jsonl",), ("mc-ratio",)),
    ("mc.next_us", "us", "lower", "events_per_s; verdict_us_*", ("mc-ratio",), ("pomc-jsonl",)),
    ("mc.rounds_per_event", "ratio", "higher", "events_per_s; verdict_us_*", ("mc-ratio",),
     ("pomc-jsonl",)),
    ("mc.peak_buffer", "count", "lower", "peak_rss_mb", ("mc-ratio",), ()),
    ("mc.register_count", "count", "lower", "peak_rss_mb", ("mc-ratio",), ()),
    ("bounds.ci_pomc_uniform_us", "us", "lower", "events_per_s", ("pomc-jsonl",), ("mc-ratio",)),
    ("bounds.ci_mc_uniform_us", "us", "lower", "events_per_s", ("mc-ratio",), ("pomc-jsonl",)),
    ("bounds.calls_per_event", "calls/event", "lower", "events_per_s",
     ("pomc-jsonl", "mc-ratio"), ()),
    ("intervals.add_sub_ns", "ns", "lower", "events_per_s", ("pomc-jsonl", "mc-ratio"), ()),
    ("intervals.mul_ns", "ns", "lower", "events_per_s", ("pomc-jsonl", "mc-ratio"), ()),
    ("intervals.inverse_ns", "ns", "lower", "events_per_s", ("pomc-jsonl", "mc-ratio"), ()),
    ("intervals.intersect_ns", "ns", "lower", "events_per_s", ("pomc-jsonl", "mc-ratio"), ()),
    ("cli.self_us_per_event", "us", "lower", "events_per_s", ("pomc-jsonl", "mc-ratio"), ()),
    ("cli.emit_us_per_record", "us", "lower", "events_per_s", ("pomc-jsonl",), ("mc-ratio",)),
    ("markov.simulate_us_per_event", "us", "lower", "events_per_s", ("simulate",), ("coverage",)),
    ("cli.write_us_per_event", "us", "lower", "events_per_s", ("simulate",), ("coverage",)),
    ("markov.simulate_states_us_per_step", "us", "lower", "events_per_s; peak_rss_mb",
     ("coverage",), ("simulate",)),
    ("runners.evaluate_s", "s", "lower", "events_per_s", ("coverage",), ()),
    ("trace.overhead_frac", "ratio", "lower", "none; reported", ALL, ()),
]

SETUP_REPS = 15
REPS = 3
CHUNK = 1000


class Tracer:
    """In-memory spans: name, start, end, parent, and a call count for hot-loop chunks."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, count: int = None):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "count": count}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict:
        """Seconds per layer, each span's duration minus the time its children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"].rsplit(".", 1)[0]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)

    def write(self, path) -> None:
        path.write_text(json.dumps(self.spans) + "\n")


def duration(span) -> float:
    return span["end"] - span["start"]


def repeat(tr: Tracer, name: str, fn, reps: int = SETUP_REPS) -> float:
    """Fastest seconds of ``fn()`` over ``reps`` calls, one span per call."""
    times = []
    for _ in range(reps):
        with tr.span(name) as sp:
            fn()
        times.append(duration(sp))
    return min(times)


def chunked(tr: Tracer, name: str, fn, items, step: int = CHUNK) -> float:
    """Seconds of ``fn(item)`` over all ``items``, one span per chunk of ``step`` calls."""
    total = 0.0
    for i in range(0, len(items), step):
        block = items[i:i + step]
        with tr.span(name, count=len(block)) as sp:
            for item in block:
                fn(item)
        total += duration(sp)
    return total


def feed(tr: Tracer, name: str, make_monitor, symbols, verdicts=None) -> tuple:
    """Seconds per ``next`` call over the fastest of ``REPS`` whole passes, and the
    first pass's monitor.  Verdicts come from the first pass.
    """
    totals = []
    for p in range(REPS):
        monitor = make_monitor()
        if p == 0:
            first = monitor
            nxt = monitor.next
            totals.append(chunked(tr, name, lambda s: verdicts.append(nxt(s)), symbols))
        else:
            totals.append(chunked(tr, name, monitor.next, symbols))
    return min(totals) / len(symbols), first


def rounds(steps: dict, reps: int = REPS) -> list:
    """Seconds of each named step per round, over ``reps`` rounds.

    The steps of a round run back to back, forward in even rounds and
    backward in odd ones, so that a change of CPU speed between rounds
    falls on both sides of a difference taken within a round.
    """
    out = []
    names = list(steps)
    for r in range(reps):
        out.append({n: steps[n]() for n in (names if r % 2 == 0 else names[::-1])})
    return out


def positive(name: str, values) -> float:
    """Median of per-round differences; an error unless it is positive."""
    value = statistics.median(values)
    if value <= 0:
        raise RuntimeError(f"{name}: median of per-round differences {values} is not positive")
    return value


class Replay:
    """Stands in for an engine monitor: hands back recorded verdicts in order."""

    def __init__(self, verdicts):
        self._next = iter(verdicts).__next__

    def next(self, symbol):
        return self._next()


def cli_main(tr: Tracer, name: str, cmd, count: int, out_path, **stubs) -> tuple:
    """Seconds and output of ``fairmon.cli.main`` on a workload command's arguments,
    in this process with standard output to a file, and with the named
    attributes of ``fairmon.cli`` replaced by ``stubs`` for the call.
    """
    import fairmon.cli as cli
    saved = {k: getattr(cli, k) for k in stubs}
    stdout = sys.stdout
    try:
        for k, f in stubs.items():
            setattr(cli, k, f)
        with open(out_path, "w") as fh, no_gc():
            sys.stdout = fh
            with tr.span(name, count=count) as sp:
                code = cli.main(cmd[3:])
                fh.flush()
    finally:
        sys.stdout = stdout
        for k, f in saved.items():
            setattr(cli, k, f)
    if code:
        raise RuntimeError(f"fairmon {' '.join(cmd[3:])} exited {code} in process")
    return duration(sp), out_path.read_text()


def time_calls(tr: Tracer, name: str, fn, args) -> float:
    """Seconds per call of ``fn(*a)`` over the whole argument sequence, fastest of ``REPS``."""
    totals = []
    for _ in range(REPS):
        total = 0.0
        for i in range(0, len(args), 10 * CHUNK):
            block = args[i:i + 10 * CHUNK]
            with tr.span(name, count=len(block)) as sp:
                for a in block:
                    fn(*a)
            total += duration(sp)
        totals.append(total)
    return min(totals) / len(args)


def interval_ops(tr: Tracer, verdicts) -> dict:
    """ns per public ``Interval`` operation on consecutive verdict intervals."""
    ivs = [v.interval for v in verdicts if v.interval is not None]
    pairs = list(zip(ivs, ivs[1:]))

    def add_sub():
        for a, b in pairs:
            a + b
            a - b

    def mul():
        for a, b in pairs:
            a * b

    def inverse():
        for a, _ in pairs:
            a.inverse()

    def intersect():
        for a, b in pairs:
            a.intersect(b)

    out = {}
    for key, body, per in (("add_sub", add_sub, 2), ("mul", mul, 1),
                           ("inverse", inverse, 1), ("intersect", intersect, 1)):
        best = repeat(tr, f"intervals.{key}", body, reps=3)
        out[f"intervals.{key}_ns"] = best / (per * len(pairs)) * 1e9
    return out


def traced_run(ws: dict, current: str, ledger, spans_path) -> tuple:
    from fairmon.bounds import ci_mc_uniform, ci_pomc_uniform, split_delta
    from fairmon.experiments.runners import run_coverage
    from fairmon.markov import (ObservationModel, mixing_time_bound, simulate,
                                simulate_states, truth_value)
    from fairmon.mc import MCMonitorDivFree, build_mc_monitor
    from fairmon.pomc import build_pomc_monitor
    from fairmon.speclang.ast import leaves
    from fairmon.speclang.normal_form import decompose_division, to_polynomial
    from fairmon.speclang.parser import parse_spec_file

    def target(metric: str) -> str:
        on = next(m[4] for m in METRICS if m[0] == metric)
        return current if current in on else on[0]

    tr = Tracer()
    v = {}
    for w in ws.values():
        w.prepare()
    pomc, mc, sim, cov = (ws[n] for n in ("pomc-jsonl", "mc-ratio", "simulate", "coverage"))
    model_p = ObservationModel.from_json(pomc.model_file.read_text())
    spec_p = parse_spec_file(inputs.POMC_SPEC, allow_transvars=False)
    spec_m = parse_spec_file(inputs.MC_SPEC, allow_transvars=True)
    slot = mc.slot

    with tr.span("bench.setup_layers"):
        w = ws[target("speclang.parse_spec_file_ms")]
        v["speclang.parse_spec_file_ms"] = 1e3 * repeat(
            tr, "speclang.parse_spec_file",
            lambda: parse_spec_file(w.spec_text, allow_transvars=(w.engine == "mc")))
        v["speclang.decompose_division_ms"] = 1e3 * repeat(
            tr, "speclang.decompose_division",
            lambda: decompose_division(to_polynomial(spec_m.expression)))
        mix_s = repeat(tr, "markov.mixing_time_bound", lambda: mixing_time_bound(model_p))
        truth_s = repeat(tr, "markov.truth_value", lambda: truth_value(model_p, spec_p.expression))
        v["markov.mixing_time_bound_ms"] = 1e3 * mix_s
        v["markov.truth_value_ms"] = 1e3 * truth_s
        tau = mixing_time_bound(model_p).tau_mix
        v["pomc.build_ms"] = 1e3 * repeat(tr, "pomc.build", lambda: build_pomc_monitor(
            spec_p.expression, inputs.DELTA, "uniform", tau, alphabet=spec_p.alphabet))
        v["mc.build_ms"] = 1e3 * repeat(tr, "mc.build", lambda: build_mc_monitor(
            spec_m.expression, inputs.DELTA, "uniform", seed=slot, alphabet=spec_m.alphabet))

    # The in-process passes cover the prefix of each stream that has goldens.
    p_syms = pomc.symbols[:pomc.lib_events]
    m_syms = mc.symbols[:mc.lib_events]
    with tr.span("bench.engines"):
        verdicts = {"pomc-jsonl": [], "mc-ratio": []}
        per_call, _ = feed(tr, "pomc.next", pomc.build_monitor, p_syms, verdicts["pomc-jsonl"])
        v["pomc.next_us"] = 1e6 * per_call
        per_call, monitor = feed(tr, "mc.next", mc.build_monitor, m_syms, verdicts["mc-ratio"])
        v["mc.next_us"] = 1e6 * per_call
        v["mc.rounds_per_event"] = monitor.n_samples / len(m_syms)
        v["mc.peak_buffer"] = monitor.peak_buffer
        v["mc.register_count"] = monitor.register_count()
        for name, vs in verdicts.items():
            ledger.check(name, "lib", [verdict_record(t, x) for t, x in enumerate(vs, start=1)])

    with tr.span("bench.bounds"):
        shares = split_delta(inputs.DELTA, spec_p.expression).shares()
        arities = [leaf.arity for leaf in leaves(spec_p.expression)]
        args_p = [(share, t, n, 0.0, 1.0, tau) for t in range(1, len(p_syms) + 1)
                  for share, n in zip(shares, arities) if t >= n]
        # The ratio's three division-free parts, fed as the division monitor feeds
        # them, give the exact (round, delta, sigma^2) sequence of its half-width calls.
        dd = decompose_division(to_polynomial(spec_m.expression))
        subs = [MCMonitorDivFree(part, inputs.DELTA / 3.0, "uniform", seed=slot * 3 + k,
                                 alphabet=spec_m.alphabet)
                for k, part in enumerate((dd.phi_a, dd.phi_b, dd.phi_c))]
        for sub in subs:
            with tr.span("mc.next_part", count=len(m_syms)):
                sub.feed(m_syms)
        args_m = [(n, inputs.DELTA / 3.0, sub.sigma_sq) for sub in subs
                  for n in range(1, sub.n_samples + 1)]
        v["bounds.ci_pomc_uniform_us"] = 1e6 * time_calls(tr, "bounds.ci_pomc_uniform",
                                                          ci_pomc_uniform, args_p)
        v["bounds.ci_mc_uniform_us"] = 1e6 * time_calls(tr, "bounds.ci_mc_uniform",
                                                        ci_mc_uniform, args_m)
        calls = {"pomc-jsonl": len(args_p) / len(p_syms), "mc-ratio": len(args_m) / len(m_syms)}
        v["bounds.calls_per_event"] = calls[target("bounds.calls_per_event")]

    with tr.span("bench.intervals"):
        v.update(interval_ops(tr, verdicts[target("intervals.add_sub_ns")]))

    with tr.span("bench.cli"):
        # The CLI's own time per event and per record: its monitor command run in
        # this process with the engine replaced by the verdicts it would return.
        def replayed(w, verdicts, stride, check):
            def step():
                build = {f"build_{w.engine}_monitor": lambda *a, **k: Replay(verdicts)}
                wall, out = cli_main(tr, "cli.monitor",
                                     w.monitor_cmd(w.stream_file if verdicts else w.empty_file,
                                                   stride),
                                     len(verdicts), w.work / f"{w.name}.cli.out", **build)
                if check:
                    ledger.check(w.name, w.stream, w.records(out))
                return wall
            return step

        t = ws[target("cli.self_us_per_event")]
        for w in {pomc, t}:
            with tr.span("bench.verdicts"):
                nxt = w.build_monitor().next
                w.verdicts = []
                chunked(tr, f"{w.engine}.next", lambda s: w.verdicts.append(nxt(s)),
                        w.symbols[:w.events])
        rs = rounds({"empty": replayed(t, [], t.stride, False),
                     "full": replayed(t, t.verdicts, t.stride, True)})
        v["cli.self_us_per_event"] = 1e6 * positive(
            "cli.self_us_per_event", [(r["full"] - r["empty"]) / t.events for r in rs])
        rs = rounds({"quiet": replayed(pomc, pomc.verdicts, pomc.events, False),
                     "full": replayed(pomc, pomc.verdicts, 1, True)})
        v["cli.emit_us_per_record"] = 1e6 * positive(
            "cli.emit_us_per_record", [(r["full"] - r["quiet"]) / (pomc.events - 1) for r in rs])
        for w in {pomc, t}:
            del w.verdicts

    with tr.span("bench.simulate"):
        def sim_pass(n, out):
            gen = simulate(model_p, n, sim.sim_seed, start="stationary")
            total = 0.0
            for i in range(0, n, 10 * CHUNK):
                k = min(10 * CHUNK, n - i)
                with tr.span("markov.simulate", count=k) as sp:
                    out.extend(islice(gen, k))
                total += duration(sp)
            return total

        totals = []
        for _ in range(REPS):
            out = []
            totals.append(sim_pass(sim.lib_events, out))
            ledger.check("simulate", "lib", out)
        v["markov.simulate_us_per_event"] = 1e6 * min(totals) / sim.lib_events
        # The CLI's own time per event: its simulate command run in this process
        # with the simulator replaced by the symbols it would draw.
        symbols = []
        sim_pass(sim.events, symbols)
        ledger.check("simulate", "cli", symbols)

        def written(steps, check):
            def step():
                wall, out = cli_main(tr, "cli.simulate", sim.sim_cmd(steps), steps,
                                     sim.work / "simulate.cli.out",
                                     simulate=lambda *a, **k: iter(symbols[:steps]))
                if check:
                    ledger.check("simulate", "cli", sim.records(out))
                return wall
            return step

        rs = rounds({"empty": written(0, False), "full": written(sim.events, True)})
        v["cli.write_us_per_event"] = 1e6 * positive(
            "cli.write_us_per_event", [(r["full"] - r["empty"]) / sim.events for r in rs])

    with tr.span("bench.coverage"):
        steps = cov.runs * cov.horizon
        records = []
        for seed in cov.study_seeds:
            with tr.span("experiments.runners.run_coverage", count=steps):
                report = run_coverage(model_p, spec_p.expression, "pomc", cov.runs,
                                      cov.horizon, inputs.DELTA, seed)
            records += report_records({"coverage": report.coverage, "rows": report.rows})
        ledger.check("coverage", "report", records)
        # One study against the calls it makes outside the evaluator, same seed.
        seed = cov.study_seeds[0]

        def timed(name, fn):
            def step():
                with tr.span(name, count=steps) as sp:
                    fn()
                return duration(sp)
            return step

        rs = rounds({
            "study": timed("experiments.runners.run_coverage", lambda: run_coverage(
                model_p, spec_p.expression, "pomc", cov.runs, cov.horizon, inputs.DELTA, seed)),
            "states": timed("markov.simulate_states", lambda: simulate_states(
                model_p, cov.horizon, cov.runs, seed, start="stationary")),
            "mix": timed("markov.mixing_time_bound", lambda: mixing_time_bound(model_p)),
            "truth": timed("markov.truth_value", lambda: truth_value(model_p, spec_p.expression)),
        })
        v["markov.simulate_states_us_per_step"] = 1e6 * min(r["states"] for r in rs) / steps
        v["runners.evaluate_s"] = positive(
            "runners.evaluate_s",
            [r["study"] - r["states"] - r["mix"] - r["truth"] for r in rs])

    with tr.span("bench.overhead"):
        v["trace.overhead_frac"] = overhead(tr, ws[current], model_p, spec_p, simulate,
                                            run_coverage)

    tr.write(spans_path)
    return v, {"self_time_s": tr.self_times(), "spans": len(tr.spans),
               "spans_file": str(spans_path)}


def overhead(tr: Tracer, w, model_p, spec_p, simulate, run_coverage) -> float:
    """Traced over untraced time of the workload's in-process loop, minus one.

    Both sides run the same slice of work on fresh state, alternating which
    goes first; each side's fastest time is compared.
    """
    if w.name == "coverage":
        reps = 2

        def make():
            return None

        def plain(_):
            run_coverage(model_p, spec_p.expression, "pomc", w.runs, w.horizon,
                         inputs.DELTA, w.study_seeds[0])

        def traced(_):
            with tr.span("experiments.runners.run_coverage", count=w.events):
                plain(None)
    elif w.name == "simulate":
        reps = 4
        n = w.events // 5

        def make():
            return simulate(model_p, n, w.sim_seed, start="stationary")

        def plain(gen):
            for _ in gen:
                pass

        def traced(gen):
            for i in range(0, n, 10 * CHUNK):
                with tr.span("markov.simulate", count=min(10 * CHUNK, n - i)):
                    for _ in islice(gen, 10 * CHUNK):
                        pass
    else:
        reps = 4
        symbols = w.symbols[:w.events // 5]

        def make():
            return w.build_monitor().next

        def plain(nxt):
            for s in symbols:
                nxt(s)

        def traced(nxt):
            for i in range(0, len(symbols), CHUNK):
                block = symbols[i:i + CHUNK]
                with tr.span(f"{w.engine}.next", count=len(block)):
                    for s in block:
                        nxt(s)
    times = {False: [], True: []}
    for r in range(reps):
        for on in ((False, True) if r % 2 == 0 else (True, False)):
            state = make()
            with no_gc():
                t0 = time.perf_counter()
                (traced if on else plain)(state)
                times[on].append(time.perf_counter() - t0)
    return min(times[True]) / min(times[False]) - 1.0
