#!/usr/bin/env python3
"""fairmon benchmark: end-to-end metrics per workload, or per-layer metrics when traced.

    python3 perfbench/run.py --workload pomc-jsonl --seed 0 --seconds 10 --trace 0

Run from anywhere inside a checkout that holds ``src/fairmon``; nothing needs
to be installed beyond numpy and scipy.  Untraced runs repeat rounds of
set-up invocations, full invocations and in-process passes for about
``--seconds``.  Each sample covers a whole piece of work (an invocation, its
stream, an in-process pass, a study), and each metric reports the median of
its samples (``stats.py`` says why), with their quartiles alongside.  Traced
runs time every layer, record spans, and report the per-layer metrics.
Every output is checked against the golden hashes in ``goldens.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, quartiles, sample counts) goes to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import golden
import inputs
from stats import percentiles_us, summarize
from workloads import WORKLOADS, Coverage

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
MIN_ROUNDS = 3
NAMES = ("setup_s", "events_per_s", "verdict_us_p50", "verdict_us_p99", "peak_rss_mb")


def timed_run(w, ledger, deadline: float) -> tuple:
    """Rounds of one set-up run, one full run and ``w.passes`` in-process passes,
    until ``deadline``.

    No round starts that could end after the deadline (a ``perf_counter``
    time), unless fewer than ``MIN_ROUNDS`` have run.

    Returns every sample per metric and the value reported for it, their
    median (``stats.py`` says why).  ``events_per_s`` is a full run's events
    over its streaming time (``Workload.streaming_rate``); for ``coverage``
    it is a study's steps over its time, each study a sample.  Verdict
    latency percentiles are taken over every call of one pass (for
    ``coverage``, over the study times of one invocation).
    """
    w.prepare()
    warm = w.run(w.setup_cmd())  # untimed: compiles bytecode, fills the file cache
    if warm.code:
        ledger.process_failed(w.name, w.stream, f"warm-up exited {warm.code}: {warm.err[-300:]}")
    series = {n: [] for n in NAMES}
    durations = []
    samples = 0
    while True:
        r0 = time.perf_counter()
        setup = w.run(w.setup_cmd())
        if setup.code:
            ledger.process_failed(w.name, w.stream,
                                  f"set-up run exited {setup.code}: {setup.err[-300:]}")
        series["setup_s"].append(setup.wall_s)
        full = w.run(w.full_cmd())
        if full.code:
            ledger.process_failed(w.name, w.stream,
                                  f"full run exited {full.code}: {full.err[-300:]}")
        else:
            ledger.check(w.name, w.stream, w.records(full.out))
            series["peak_rss_mb"].append(full.peak_rss_mb)
            if isinstance(w, Coverage):
                # A study's one verdict is its report: the latency is the study time.
                studies = Coverage.study_times(full.out)
                series["events_per_s"] += [w.events / s for s in studies]
                p50, p99 = percentiles_us([s * 1e9 for s in studies])
                series["verdict_us_p50"].append(p50)
                series["verdict_us_p99"].append(p99)
                samples += len(studies)
            else:
                series["events_per_s"].append(w.streaming_rate(full))
        for _ in range(w.passes):
            lat, recs = w.library_pass()
            for stream, records in recs.items():
                ledger.check(w.name, stream, records)
            p50, p99 = percentiles_us(lat)
            series["verdict_us_p50"].append(p50)
            series["verdict_us_p99"].append(p99)
            samples += len(lat)
        durations.append(time.perf_counter() - r0)
        if len(durations) >= MIN_ROUNDS and time.perf_counter() + max(durations) > deadline:
            break
    reported = {n: statistics.median(v) for n, v in series.items() if v}
    extra = {"rounds": len(durations), "events_per_invocation": w.events,
             "verdict_samples": samples, "samples": series}
    return series, reported, extra


def environment(seed: int, slot: int) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                 capture_output=True, text=True, timeout=10)
            if res.returncode == 0:
                commit = res.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "seed": seed, "input_slot": slot}


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(inputs.SCALES), default="full",
                    help="input sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fairmon" / "__init__.py").is_file():
        sys.stderr.write(f"error: no fairmon package under {ROOT / 'src'}\n")
        return 2
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        sys.stderr.write(f"error: {bench_file} is missing\n")
        return 2
    bench = json.loads(bench_file.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    slot = inputs.slot_of(args.seed)
    env = environment(args.seed, slot)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        ledger = golden.Ledger(golden.load(), args.scale, slot)
        if args.trace:
            import layers
            ws = {name: cls(ROOT, work, slot, args.scale) for name, cls in WORKLOADS.items()}
            declared = bench["per_layer"]
            values, extra = layers.traced_run(ws, args.workload, ledger, OUT / f"spans-{tag}.json")
            summary = {m["name"]: {"value": values[m["name"]]} for m in declared}
        else:
            declared = bench["end_to_end"]
            w = WORKLOADS[args.workload](ROOT, work, slot, args.scale)
            series, reported, extra = timed_run(w, ledger, started + args.seconds)
            empty = [m["name"] for m in declared if not series[m["name"]]]
            if empty:
                sys.stderr.write(f"error: no samples for {empty}; "
                                 f"{'; '.join(ledger.mismatches)}\n")
                return 1
            summary = {m["name"]: summarize(series[m["name"]], reported[m["name"]], m["bound"])
                       for m in declared}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"env: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed} (input slot {slot}), "
          f"{'traced' if args.trace else 'untraced'}, scale {args.scale}")
    for m in declared:
        s = summary[m["name"]]
        line = f"  {m['name']:<36} {s['value']:.6g} {m['unit']}"
        if "q1" in s:
            line += (f"  samples: median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g}"
                     f" spread {s['spread']:.3f} n={s['n']} bound {s['bound']}")
            if s["unresolved"]:
                line += "  UNRESOLVED"
        print(line)
    if args.trace:
        print(f"  self time per layer ({extra['spans']} spans in {extra['spans_file']}):")
        for layer, secs in sorted(extra["self_time_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {layer:<24} {secs:.4f} s")
    else:
        print(f"  verdict latency samples: {extra['verdict_samples']}, rounds: {extra['rounds']}")
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    print(f"correctness: {ledger.attempted} golden blocks checked, {ledger.failed} differ "
          f"(failed_frac {failed_frac:.4g})")
    for line in ledger.mismatches:
        print(f"  mismatch {line}")

    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": summary[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared},
    }
    record = {"env": env, "workload": args.workload, "trace": args.trace,
              "scale": args.scale, "failed_frac": failed_frac, "summary": summary,
              "mismatches": ledger.mismatches, "extra": extra, "result": result}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
