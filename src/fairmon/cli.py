"""Command-line surface: monitor, simulate, truth, compare-bounds, experiment.

Event streams are one observation symbol per line, UTF-8, blank lines
ignored.  Exit codes: 0 success, 2 configuration error, 3 malformed event.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .bounds import (ci_mc_pointwise, ci_mc_uniform, ci_pomc_pointwise,
                     ci_pomc_uniform, naive_uniform_lift)
from .errors import ConfigError, FairmonError
from .markov import ObservationModel, mixing_time_bound, simulate, truth_value
from .mc import build_mc_monitor
from .pomc import build_pomc_monitor
from .speclang.parser import parse_spec_file

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EVENT = 3


def _load_model(path: str) -> ObservationModel:
    return ObservationModel.from_json(Path(path).read_text())


def _load_spec(path: str, allow_transvars: bool):
    return parse_spec_file(Path(path).read_text(), allow_transvars=allow_transvars)


INF = math.inf


def _emit(write, fmt: str, t: int, verdict) -> None:
    """One record: a JSON object with the bytes of ``json.dumps``, or a CSV row.

    A number that is missing or not finite is ``null`` in JSONL and empty in
    CSV.  ``float.__repr__`` is the float text of ``json.dumps``, also for
    numpy floats, whose own ``repr`` names the type.  The kind is
    ``verdict.kind``, read off the endpoints already at hand.
    """
    missing = "null" if fmt == "jsonl" else ""
    iv, point = verdict.interval, verdict.point
    point = float.__repr__(point) if point is not None and -INF < point < INF else missing
    if iv is None:
        lo = hi = missing
        kind = "inconclusive"
    else:
        lo, hi = iv.lo, iv.hi
        kind = "ok" if -INF < lo and hi < INF else "unbounded"  # as lo <= hi
        lo = float.__repr__(lo) if -INF < lo < INF else missing
        hi = float.__repr__(hi) if -INF < hi < INF else missing
    if not verdict.consistent:
        kind = "inconsistent"
    if fmt == "jsonl":
        write(f'{{"t": {t}, "lo": {lo}, "hi": {hi}, "point": {point}, "verdict": "{kind}"}}\n')
    else:
        write(f"{t},{lo},{hi},{point},{kind}\n")


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
    step, write, stride, fmt = monitor.next, sys.stdout.write, args.stride, args.format
    alphabet = set(spec.alphabet)
    t = 0
    try:
        if fmt == "csv":
            write("t,lo,hi,point,verdict\n")
        for line_no, line in enumerate(source, start=1):
            symbol = line.strip()
            if not symbol:
                continue
            if symbol not in alphabet:
                if any("\udc80" <= c <= "\udcff" for c in symbol):
                    sys.stderr.write(f"error: line {line_no}: bytes that are not UTF-8\n")
                else:
                    sys.stderr.write(
                        f"error: line {line_no}: symbol {symbol!r} is not in the alphabet\n")
                return EXIT_EVENT
            t += 1
            verdict = step(symbol)
            if t % stride == 0:
                _emit(write, fmt, t, verdict)
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
    ts = sorted({max(1, round(start * ratio ** i)) for i in range(points)})
    return ts


def cmd_compare_bounds(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
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
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
