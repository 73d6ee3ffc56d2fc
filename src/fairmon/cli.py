"""Command-line surface: monitor, simulate, truth, compare-bounds, experiment.

Event streams are one observation symbol per line, UTF-8, blank lines
ignored.  Exit codes: 0 success, 2 configuration error, 3 malformed event.

``fairmon monitor`` hands the whole stream to the monitor's ``run``, its
generated step inside a loop over the lines, which writes every
``--stride``-th verdict through the two writers of :func:`_writers`.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import sys
from pathlib import Path

from .bounds import (ci_mc_pointwise, ci_mc_uniform, ci_pomc_pointwise,
                     ci_pomc_uniform, naive_uniform_lift)
from .errors import ConfigError, EventError, FairmonError
from .markov import ObservationModel, mixing_time_bound, simulate, truth_value
from .mc import build_mc_monitor
from .pomc import build_pomc_monitor
from .speclang.parser import parse_spec_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVENT = 3


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8: {exc}") from None


def _load_model(path: str) -> ObservationModel:
    return ObservationModel.from_json(_read_text(path))


def _load_spec(path: str, allow_transvars: bool):
    return parse_spec_file(_read_text(path), allow_transvars=allow_transvars)


INF = math.inf
_repr = float.__repr__


def _writers(write, fmt: str):
    """``record(t, lo, hi, point)`` and ``emit(t, verdict)``, which each write
    one record: a JSON object with the bytes of ``json.dumps``, or a CSV row.

    ``record`` takes the numbers of a consistent verdict with an interval,
    ``lo <= hi``; ``emit`` takes any verdict.  A number that is missing or
    not finite is ``null`` in JSONL and empty in CSV.  ``float.__repr__`` is
    the float text of ``json.dumps``, also for numpy floats, whose own
    ``repr`` names the type.  The kind is ``Verdict.kind``, read off the
    endpoints already at hand.  The ordinary record, a consistent verdict
    with finite numbers, is one f-string per format.
    """
    jsonl = fmt == "jsonl"
    missing = "null" if jsonl else ""

    def text(x):
        return _repr(x) if x is not None and -INF < x < INF else missing

    def other(t, lo, hi, point, kind):
        lo, hi, point = text(lo), text(hi), text(point)
        if jsonl:
            write(f'{{"t": {t}, "lo": {lo}, "hi": {hi}, "point": {point}, "verdict": "{kind}"}}\n')
        else:
            write(f"{t},{lo},{hi},{point},{kind}\n")

    def record(t, lo, hi, point):
        # as lo <= hi, both are finite
        if -INF < lo and hi < INF and point is not None and -INF < point < INF:
            if jsonl:
                write(f'{{"t": {t}, "lo": {_repr(lo)}, "hi": {_repr(hi)}, '
                      f'"point": {_repr(point)}, "verdict": "ok"}}\n')
            else:
                write(f"{t},{_repr(lo)},{_repr(hi)},{_repr(point)},ok\n")
        else:
            other(t, lo, hi, point, "ok" if -INF < lo and hi < INF else "unbounded")

    def emit(t, verdict):
        iv, point = verdict.interval, verdict.point
        if iv is None:
            other(t, None, None, point, "inconclusive" if verdict.consistent else "inconsistent")
        elif verdict.consistent:
            record(t, iv.lo, iv.hi, point)
        else:
            other(t, iv.lo, iv.hi, point, "inconsistent")

    return record, emit


def _each_event(step, lines, emit, stride: int) -> None:
    """A monitor's ``run(lines, record, emit, stride)`` for a monitor object
    that has only ``next``, here ``step``: one call per event and every
    written verdict through ``emit``.

    ``cmd_monitor`` takes it only for such an object, as the traced run of
    ``perfbench/layers.py`` passes; the tests hold each engine's ``run`` to
    the bytes of this loop.
    """
    t = 0
    for line_no, line in enumerate(lines, start=1):
        symbol = line.strip()
        if not symbol:
            continue
        try:
            verdict = step(symbol)
        except EventError as exc:
            exc.line = line_no
            raise
        t += 1
        if t % stride == 0:
            emit(t, verdict)


def _open_events(path):
    """The event stream; undecodable bytes read as lone surrogates (U+DC80..U+DCFF)."""
    if path is not None:
        return open(path, encoding="utf-8", errors="surrogateescape")
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="surrogateescape")
    return sys.stdin


def cmd_monitor(args) -> int:
    spec = _load_spec(args.spec, allow_transvars=(args.engine == "mc"))
    if not 0.0 < args.delta < 1.0:
        raise ConfigError(f"--delta must be in (0,1), got {args.delta}")
    if args.stride < 1:
        raise ConfigError("--stride must be positive")
    if args.engine == "mc":
        # flags the mc engine has no use for
        for flag, given in (("--intersect", args.intersect),
                            ("--tau-mix", args.tau_mix is not None),
                            ("--model", args.model is not None)):
            if given:
                raise ConfigError(f"{flag} needs --engine pomc")

    if args.engine == "pomc":
        tau = args.tau_mix
        if tau is None:
            if args.model is None:
                raise ConfigError("engine 'pomc' needs --tau-mix (or --model to compute it)")
            tau = mixing_time_bound(_load_model(args.model)).tau_mix
        monitor = build_pomc_monitor(spec.expression, args.delta, args.mode, tau,
                                     alphabet=spec.alphabet,
                                     intersect_verdicts=args.intersect)
    else:
        monitor = build_mc_monitor(spec.expression, args.delta, args.mode,
                                   seed=args.seed, alphabet=spec.alphabet)

    source = _open_events(args.events)
    write = sys.stdout.write
    record, emit = _writers(write, args.format)
    run = getattr(monitor, "run", None)
    try:
        if args.format == "csv":
            write("t,lo,hi,point,verdict\n")
        # the monitor rejects a symbol outside the alphabet before any state moves
        if run is None:
            _each_event(monitor.next, source, emit, args.stride)
        else:
            run(source, record, emit, args.stride)
    except EventError as exc:
        if any("\udc80" <= c <= "\udcff" for c in exc.symbol):
            sys.stderr.write(f"error: line {exc.line}: bytes that are not UTF-8\n")
        else:
            sys.stderr.write(f"error: line {exc.line}: {exc}\n")
        return EXIT_EVENT
    finally:
        if source is not sys.stdin:
            source.close()
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.steps < 0:
        raise ConfigError(f"--steps must be nonnegative, got {args.steps}")
    model = _load_model(args.model)
    out = sys.stdout
    for symbol in simulate(model, args.steps, args.seed, start=args.start):
        out.write(symbol + "\n")
    return EXIT_OK


def cmd_truth(args) -> int:
    model = _load_model(args.model)
    spec = _load_spec(args.spec, allow_transvars=True)
    value = truth_value(model, spec.expression, window_cap=args.window_cap)
    sys.stdout.write(f"{value:.12g}\n")
    return EXIT_OK


_METHODS = {
    "mc-pointwise": lambda t, d, s2, tau: ci_mc_pointwise(t, d, s2),
    "mc-uniform": lambda t, d, s2, tau: ci_mc_uniform(t, d, s2),
    "poly-union": lambda t, d, s2, tau: naive_uniform_lift(d, t, "polynomial", s2),
    "exp-union": lambda t, d, s2, tau: naive_uniform_lift(d, t, "exponential", s2),
    "pomc-pointwise": lambda t, d, s2, tau: ci_pomc_pointwise(d, t, 1, 0.0, math.sqrt(s2), tau),
    "pomc-uniform": lambda t, d, s2, tau: ci_pomc_uniform(d, t, 1, 0.0, math.sqrt(s2), tau),
}


def _parse_t_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--t-range must be start:stop:points")
    try:
        start, stop, points = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"--t-range parts must be integers, got {text!r}") from None
    if start < 1 or stop < start or points < 1:
        raise ConfigError("--t-range values out of order")
    # floats hold every integer up to 2**53; the formulas overflow far beyond it
    if stop > 2 ** 53 or points > 2 ** 53:
        raise ConfigError("--t-range stop and points must be at most 2**53")
    if points == 1:
        return [start]
    ratio = (stop / start) ** (1.0 / (points - 1))

    def at(i: int) -> int:
        return max(1, round(start * ratio ** i))

    # The grid never decreases, since ratio >= 1: one bisection per distinct
    # value finds the end of its run, at a cost of O(log(points)) grid points.
    ts, i = [], 0
    while i < points:
        v = at(i)
        ts.append(v)
        i = bisect.bisect_right(range(points), v, i + 1, points, key=at)
    return ts


def cmd_compare_bounds(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError(f"--methods names no method; available: {sorted(_METHODS)}")
    for m in methods:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}; available: {sorted(_METHODS)}")
    if not args.sigma_sq >= 0.0:
        raise ConfigError(f"--sigma-sq must be nonnegative, got {args.sigma_sq}")
    # every row is computed before any is written, so a bad value prints nothing
    rows = [[str(t)] + [repr(_METHODS[m](t, args.delta, args.sigma_sq, args.tau_mix))
                        for m in methods]
            for t in _parse_t_range(args.t_range)]
    out = sys.stdout
    out.write("t," + ",".join(methods) + "\n")
    for row in rows:
        out.write(",".join(row) + "\n")
    return EXIT_OK


def cmd_experiment(args) -> int:
    from .experiments.runners import run_named_experiment
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key] = value
    manifest = run_named_experiment(args.name, args.seed, args.out_dir, **overrides)
    sys.stdout.write(json.dumps(manifest, indent=2) + "\n")
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    """argparse type for ``--seed``."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairmon",
        description="Statistical runtime monitors for fairness properties "
                    "of Markovian event streams.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monitor", help="monitor an event stream")
    p.add_argument("--spec", required=True, help="specification file")
    p.add_argument("--model", help="model file (to derive --tau-mix)")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--mode", choices=["pointwise", "uniform"], default="pointwise")
    p.add_argument("--engine", choices=["mc", "pomc"], default="mc")
    p.add_argument("--tau-mix", type=float, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--intersect", action="store_true",
                   help="intersect successive verdicts (pomc engine, uniform mode only)")
    p.add_argument("--events", help="event file (default: stdin)")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("simulate", help="sample an observation stream")
    p.add_argument("--model", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--start", choices=["initial", "stationary"], default="initial")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("truth", help="exact model-based value of a property")
    p.add_argument("--model", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--window-cap", type=int, default=6)
    p.set_defaults(func=cmd_truth)

    p = sub.add_parser("compare-bounds", help="tabulate half-width formulas")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--sigma-sq", type=float, default=1.0)
    p.add_argument("--tau-mix", type=float, default=1.0)
    p.add_argument("--t-range", default="10:1000000:51")
    p.add_argument("--methods", default="mc-pointwise,mc-uniform,poly-union,exp-union")
    p.set_defaults(func=cmd_compare_bounds)

    p = sub.add_parser("experiment", help="run a named experiment")
    p.add_argument("--name", required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out-dir", default="out")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override an experiment parameter")
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone (``| head``); the interpreter's last flush of
        # standard output would fail again, so it goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except FairmonError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        # a file or directory that cannot be opened, read or written
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
