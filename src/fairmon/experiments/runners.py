"""Experiment drivers: coverage studies, bound comparisons, timing, soak.

A coverage study simulates every run up front, then one loop per run asks the
engine for its pointwise verdicts and whether its uniform verdicts all held,
and folds them into the per-checkpoint envelope and the coverage counts.

Over partially observed models the verdicts come from a vectorized
re-implementation of the windowed monitors, which keeps hundred-run studies
at interactive speed.  One evaluator pass per run serves both modes: each
atom's window values and means, and the point series, are computed once;
only the intervals are computed once per mode.  Its point estimates divide
cumulative sums where the streaming monitors keep a running mean, so the two
agree to rounding, not bit for bit; recorded coverage reports pin this
arithmetic, so it stays.  Fully observed monitors are sequential
(reshuffling draws), so each run streams through the real uniform monitor:
its verdicts give the uniform count, and its running mean and sample count
give the pointwise interval.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bounds import (baseline_union_interval, ci_mc_pointwise, ci_mc_uniform,
                      ci_pomc_pointwise, ci_pomc_uniform, naive_uniform_lift,
                      pomc_halfwidth_table, split_delta)
from ..errors import ConfigError
from ..intervals import Interval
from ..markov import (ObservationModel, mixing_time_bound, simulate,
                      simulate_states, truth_value)
from ..mc import build_mc_monitor
from ..pomc import INCONCLUSIVE, atom_window
from ..speclang.ast import (Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub,
                            TransVar, contains_division, expression_size, fold, leaves)
from ..speclang.normal_form import decompose_division, to_polynomial
from ..speclang.ranges import bse_range
from . import models

_INF = math.inf


# ---------------------------------------------------------------------------
# vectorized windowed-monitor evaluation (partially observed engine)

def _prod_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        p = a * b
    bad = np.isnan(p) & ((a == 0.0) | (b == 0.0))
    if bad.any():
        p[bad] = 0.0
    return p


def _iv_mul(lo1, hi1, lo2, hi2):
    p1 = _prod_arr(lo1, lo2)
    p2 = _prod_arr(lo1, hi2)
    p3 = _prod_arr(hi1, lo2)
    p4 = _prod_arr(hi1, hi2)
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


def _iv_inv(lo, hi):
    crosses = (lo <= 0.0) & (hi >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        nlo = 1.0 / hi
        nhi = 1.0 / lo
    nlo = np.where(crosses, -_INF, nlo)
    nhi = np.where(crosses, _INF, nhi)
    return nlo, nhi


def _recip(p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / p


# (lo, hi) and point arrays, the vectorized twin of CompositeMonitor's algebra
_BOUNDS = {
    Add: lambda _, a, b: (a[0] + b[0], a[1] + b[1]),
    Sub: lambda _, a, b: (a[0] - b[1], a[1] - b[0]),
    Mul: lambda _, a, b: _iv_mul(a[0], a[1], b[0], b[1]),
    Inv: lambda _, c: _iv_inv(c[0], c[1]),
}
_POINTS = {
    Add: lambda _, a, b: a + b,
    Sub: lambda _, a, b: a - b,
    Mul: lambda _, a, b: _prod_arr(a, b),
    Inv: lambda _, c: _recip(c),
}


class PomcSeriesEvaluator:
    """Per-run composite-interval series for a windowed expression, both modes.

    Each atom's window function is tabulated once on every word of its arity,
    indexed by the word read as a base-|O| number (first symbol most
    significant), so a run reads its window values with one gather.  The
    half-width arrays depend only on time, so they are computed once per
    mode and shared across runs; each run then costs one cumulative sum per
    atom, shared by both modes.
    """

    def __init__(self, expr: Expr, alphabet: Sequence[str], horizon: int,
                 delta: float, tau_mix: float):
        self.expr = expr
        self.alphabet = tuple(alphabet)
        self.root_range = bse_range(expr)
        atoms = leaves(expr)
        shares = split_delta(delta, expr).shares() if atoms else []
        self._atoms: List[Tuple[np.ndarray, Tuple[np.ndarray, ...], int, float, float]] = []
        # one pair (pointwise, uniform) per distinct (share, n, low, high)
        tables: Dict[Tuple, Tuple[np.ndarray, ...]] = {}
        for leaf, share in zip(atoms, shares):
            fn, n, low, high = atom_window(leaf)
            if (share, n, low, high) not in tables:
                tables[share, n, low, high] = tuple(
                    pomc_halfwidth_table(share, n, low, high, tau_mix, uniform, horizon)
                    for uniform in (False, True))
            values = np.array([fn(w) for w in itertools.product(self.alphabet, repeat=n)],
                              dtype=float)
            self._atoms.append((values, tables[share, n, low, high], n, low, high))
        self.warmup = max((a[2] for a in self._atoms), default=1)

    def run(self, codes: np.ndarray):
        """Return the pointwise and the uniform (lo, hi, point) arrays, indexed
        by t = 1..horizon (index 0 unused); the two share their point array."""
        t_len = codes.shape[0]
        base = len(self.alphabet)
        ts = np.arange(t_len + 1, dtype=float)
        means = []
        for values, _, n, _, _ in self._atoms:
            windows = t_len - n + 1
            word = codes[:windows]
            for off in range(1, n):
                word = word * base + codes[off:windows + off]
            m = np.full(t_len + 1, np.nan)
            m[n:] = np.cumsum(values[word]) / np.maximum(ts[n:] - (n - 1), 1.0)
            means.append(m)

        def fold_series(algebra, leaf_series, const):
            nxt = iter(leaf_series).__next__
            return fold(self.expr, {**algebra, Const: const,
                                    Atom: lambda _: nxt(), SeqProb: lambda _: nxt()})

        def full(node):
            return np.full(t_len + 1, node.value)

        pt = fold_series(_POINTS, means, full)
        out = []
        for k in (0, 1):  # pointwise, uniform
            bounds = [(np.maximum(m - eps[k][:t_len + 1], low),
                       np.minimum(m + eps[k][:t_len + 1], high))
                      for m, (_, eps, _, low, high) in zip(means, self._atoms)]
            lo, hi = fold_series(_BOUNDS, bounds, lambda node: (full(node), full(node)))
            out.append((np.maximum(lo, self.root_range.lo),
                        np.minimum(hi, self.root_range.hi), pt))
        return tuple(out)


# ---------------------------------------------------------------------------
# coverage studies

@dataclass
class ExperimentReport:
    name: str
    seed: int
    params: Dict
    truth: float
    coverage: Dict[str, int] = field(default_factory=dict)
    rows: List[Dict] = field(default_factory=list)
    timing: Optional[Dict] = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=float)


def _default_checkpoints(horizon: int) -> List[int]:
    pts = []
    t = 10
    while t < horizon:
        pts.append(t)
        t *= 10
    pts.append(horizon)
    return pts


def run_coverage(model: ObservationModel, expr: Expr, engine: str, runs: int,
                 horizon: int, delta: float, seed: int,
                 tau_mix: Optional[float] = None,
                 checkpoints: Optional[Sequence[int]] = None,
                 start: str = "stationary", name: str = "coverage") -> ExperimentReport:
    """Seeded repeated-run study: does the verdict envelope trap the truth?

    Records, per checkpoint, how many runs' pointwise verdicts contain the
    truth and the min/max of their point estimates and interval endpoints,
    plus two coverage counts: how many runs contain the truth at the final
    time (pointwise monitors) and at every emitted time (uniform monitors).
    """
    if runs < 1:
        raise ConfigError(f"a coverage study needs at least one run, got runs={runs}")
    truth = truth_value(model, expr)
    checkpoints = list(checkpoints or _default_checkpoints(horizon))
    if not all(1 <= t <= horizon for t in checkpoints):
        raise ConfigError(f"checkpoints must lie in [1, {horizon}]")
    params = {"engine": engine, "runs": runs, "horizon": horizon, "delta": delta}
    if engine == "pomc":
        if tau_mix is None:
            tau_mix = mixing_time_bound(model).tau_mix
        params["tau_mix"] = tau_mix
        run = _pomc_run(model, expr, horizon, delta, tau_mix, truth)
    elif engine == "mc":
        run = _mc_run(model, expr, delta, seed, truth, sorted({*checkpoints, horizon}))
    else:
        raise ConfigError(f"unknown engine {engine!r}")
    params["start"] = start

    states = simulate_states(model, horizon, runs, seed, start=start)
    covered_final = 0
    covered_all = 0
    reached = _INF  # earliest checkpoint any run has a verdict at
    covered_at = {t: 0 for t in checkpoints}
    env = {t: {"point": [_INF, -_INF], "lo": [_INF, -_INF], "hi": [_INF, -_INF]}
           for t in checkpoints}
    for r in range(runs):
        # the previous run's series stay referenced until this run's exist:
        # freeing them first lets the allocator trim and regrow the heap
        # every run, which slows each process's first study
        first, (lo, hi, pt), uniform_ok = run(r, states[r])
        if lo[horizon] <= truth <= hi[horizon]:
            covered_final += 1
        if uniform_ok:
            covered_all += 1
        reached = min(reached, first)
        for t in checkpoints:
            if t < first:
                continue
            if lo[t] <= truth <= hi[t]:
                covered_at[t] += 1
            e = env[t]
            e["point"][0] = min(e["point"][0], pt[t])
            e["point"][1] = max(e["point"][1], pt[t])
            e["lo"][0] = min(e["lo"][0], lo[t])
            e["lo"][1] = max(e["lo"][1], lo[t])
            e["hi"][0] = min(e["hi"][0], hi[t])
            e["hi"][1] = max(e["hi"][1], hi[t])
    rows = [{"t": t, "truth": truth, "covered": covered_at[t],
             "point_min": env[t]["point"][0], "point_max": env[t]["point"][1],
             "lo_min": env[t]["lo"][0], "lo_max": env[t]["lo"][1],
             "hi_min": env[t]["hi"][0], "hi_max": env[t]["hi"][1]}
            for t in checkpoints if t >= reached]
    return ExperimentReport(
        name=name, seed=seed, params=params, truth=truth,
        coverage={"runs": runs, "pointwise_final": covered_final,
                  "uniform_all": covered_all},
        rows=rows)


def _pomc_run(model, expr, horizon, delta, tau_mix, truth):
    """Per-run step of the windowed engine: one vectorized pass for both modes."""
    state_codes = model.label_codes()
    evaluator = PomcSeriesEvaluator(expr, model.alphabet, horizon, delta, tau_mix)
    warm = evaluator.warmup
    emitted = slice(warm, horizon + 1)
    series = None

    def run(_, states):
        nonlocal series
        # as in the study loop, the previous run's series stay referenced
        # until this run's exist
        series = evaluator.run(state_codes[states])
        lo, hi, _ = series[1]
        return warm, series[0], bool(np.all((lo[emitted] <= truth) & (truth <= hi[emitted])))

    return run


def _mc_run(model, expr, delta, seed, truth, stops):
    """Per-run step of the fully observed engine: one uniform monitor per run.

    Its verdicts give the uniform count.  At each stop (the checkpoints and
    the horizon) its running mean and sample count give the pointwise
    interval, which differs from the uniform one only in the half-width.
    """
    names = [model.labels[s] for s in model.states]
    probe = build_mc_monitor(expr, delta, "uniform")
    if contains_division(expr) and not decompose_division(to_polynomial(expr)).is_trivial:
        raise ConfigError("mc coverage studies need an expression that is division "
                          "free once normalized; a + b / c is not supported")
    s2, lo_range, hi_range = probe.sigma_sq, probe.value_range.lo, probe.value_range.hi

    def run(r, states):
        monitor = build_mc_monitor(expr, delta, "uniform", seed=seed + 7919 * r)
        symbols = [names[c] for c in states]
        first, uniform_ok, verdict, done = _INF, True, INCONCLUSIVE, 0
        lo, hi, pt = {}, {}, {}
        for stop in stops:
            for symbol in symbols[done:stop]:
                v = monitor.next(symbol)
                if v is not verdict:  # a completed round: a new uniform verdict
                    verdict = v
                    uniform_ok = uniform_ok and v.interval.contains(truth)
            done = stop
            n, mu = monitor.n_samples, monitor.mean
            if n == 0:
                lo[stop] = hi[stop] = pt[stop] = math.nan
                continue
            first = min(first, stop)
            eps = ci_mc_pointwise(n, delta, s2)
            lo[stop], hi[stop], pt[stop] = max(mu - eps, lo_range), min(mu + eps, hi_range), mu
        return first, (lo, hi, pt), uniform_ok and verdict is not INCONCLUSIVE

    return run


# ---------------------------------------------------------------------------
# analytic comparisons

def fig3_ratio_series(n_max: int = 10, delta: float = 0.05, t: int = 10_000) -> List[Dict]:
    """Width ratio of the per-variable union-bound baseline to the direct monitor.

    The monitored family is the sum of the transition probabilities from one
    state to n distinct successors; the summands are mutually exclusive, so
    the direct per-round outcome stays in [0, 1] while the baseline pays both
    the delta split and the interval-arithmetic sum.
    """
    from ..speclang.ranges import expr_range
    rows = []
    for n in range(1, n_max + 1):
        expr = TransVar("1", "2")
        for i in range(1, n):
            expr = Add(expr, TransVar("1", str(i + 2)))
        sigma_sq = expr_range(expr).width ** 2
        ours = ci_mc_pointwise(t, delta, sigma_sq)
        per_var = ci_mc_pointwise(t, delta / n, 1.0)
        point = 0.5 / n
        intervals = [Interval(point - per_var, point + per_var) for _ in range(n)]
        baseline = baseline_union_interval(intervals, expr)
        rows.append({"n": n, "ratio": baseline.width / (2.0 * ours),
                     "baseline_halfwidth": baseline.width / 2.0,
                     "direct_halfwidth": ours})
    return rows


def fig4_uniform_series(delta: float = 0.05, sigma_sq: float = 1.0,
                        t_values: Optional[Sequence[int]] = None) -> List[Dict]:
    """Stitched uniform width against polynomial/exponential union-bound lifts."""
    if t_values is None:
        t_values = np.unique(np.logspace(0, 6, 61).astype(int))
    rows = []
    for t in t_values:
        t = int(t)
        rows.append({
            "t": t,
            "stitched": ci_mc_uniform(t, delta, sigma_sq),
            "poly_union": naive_uniform_lift(delta, t, "polynomial", sigma_sq),
            "exp_union": naive_uniform_lift(delta, t, "exponential", sigma_sq),
        })
    return rows


def run_nonconvergent(k_max: int = 30) -> List[Tuple[int, int, float]]:
    """Running mean of the identity atom on the alternating-block stream.

    Blocks are numbered from 1; block k covers positions [2^(k-1), 2^k - 1]
    and emits ones exactly when k is odd.  Returned rows are
    (k, t_k = 2^k - 1, running mean at t_k); odd rows tend to 2/3, even rows
    are exactly 1/3.
    """
    if not 1 <= k_max <= 40:
        raise ConfigError("k_max must be in [1, 40]")
    rows = []
    ones = 0
    for k in range(1, k_max + 1):
        if k % 2 == 1:
            ones += 2 ** (k - 1)
        t_k = 2 ** k - 1
        rows.append((k, t_k, ones / t_k))
    return rows


def nonconvergent_block_stream(t_max: int):
    """Reference generator of the block stream (for cross-checking the rows)."""
    for t in range(1, t_max + 1):
        k = t.bit_length()  # block number of position t
        yield 1 if k % 2 == 1 else 0


# ---------------------------------------------------------------------------
# timing and memory

def timing_table(entries=None, events: int = 1_000_000, seed: int = 0,
                 chunk: int = 100_000, delta: float = 0.05) -> List[Dict]:
    """Mean/min/max per-event update cost of the fully-observed monitor.

    Entries are (scenario, model, property-text) triples; the default set
    spans expression sizes 1, 5 and 19.
    """
    from ..speclang.parser import parse
    if events < 1:
        raise ConfigError(f"timing needs at least one event, got events={events}")
    if entries is None:
        lend = models.lending_mc()
        adm5 = models.admission_mc(levels=2)
        adm19 = models.admission_mc(levels=9)
        entries = [
            ("lending demographic parity", lend, "T[g->gy] - T[gbar->gbary]"),
            ("admission social burden (3 levels)", adm5, models.social_burden_text(2)),
            ("admission social burden (10 levels)", adm19, models.social_burden_text(9)),
        ]
    rows = []
    for scenario, model, text in entries:
        expr = parse(text, model.alphabet)
        monitor = build_mc_monitor(expr, delta, "pointwise", seed=seed)
        symbols = list(simulate(model, events, seed, start="stationary"))
        per_event = []
        for i in range(0, events, chunk):
            block = symbols[i:i + chunk]
            t0 = time.perf_counter()
            monitor.feed(block)
            dt = time.perf_counter() - t0
            per_event.append(dt / len(block))
        rows.append({
            "scenario": scenario,
            "size": expression_size(expr),
            "events": events,
            "mean_us": 1e6 * sum(per_event) / len(per_event),
            "min_us": 1e6 * min(per_event),
            "max_us": 1e6 * max(per_event),
            "registers": monitor.register_count(),
            "outcomes": monitor.n_samples,
        })
    return rows


def soak_registers(model: ObservationModel, text: str, events: int = 10_000_000,
                   seed: int = 0, snapshots: int = 10,
                   delta: float = 0.05) -> List[Dict]:
    """Register-count snapshots along a long stream; growth means a leak."""
    from ..speclang.parser import parse
    expr = parse(text, model.alphabet)
    monitor = build_mc_monitor(expr, delta, "pointwise", seed=seed)
    chunk = max(1, events // snapshots)
    out = []
    done = 0
    while done < events:
        step = min(chunk, events - done)
        monitor.feed(simulate(model, step, seed + len(out), start="stationary"))
        done += step
        out.append({"events": done, "registers": monitor.register_count(),
                    "peak_buffer": monitor.peak_buffer,
                    "outcomes": monitor.n_samples})
    return out


# ---------------------------------------------------------------------------
# named experiments (CLI surface)

def _write_csv(path, rows: List[Dict]):
    import csv
    with open(path, "w", newline="") as fh:
        if not rows:
            fh.write("")
            return
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


_COVERAGE = {"runs": 100, "horizon": 100_000, "delta": 0.05}
# each named experiment's parameters, with their defaults; an override is
# converted to its default's type
_EXPERIMENTS = {
    "fig3-ratio": {"delta": 0.05}, "fig4-uniform": {"delta": 0.05},
    "lending-mc": _COVERAGE, "admission": {**_COVERAGE, "runs": 20},
    "lending-pomc": _COVERAGE, "hypercube": _COVERAGE,
    "table1-timing": {"events": 200_000}, "nonconvergent": {"k_max": 30},
}


def run_named_experiment(name: str, seed: int, out_dir, **overrides) -> Dict:
    """Run one of the built-in experiments and write its artifacts.

    Produces ``<out-dir>/<name>/{report.json, series.csv, manifest.json}``
    and returns the manifest.  An override key the experiment does not read,
    or a value that does not convert to the key's type, is a ``ConfigError``.
    """
    from pathlib import Path
    from ..speclang.parser import parse

    if name not in _EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; available: {', '.join(_EXPERIMENTS)}")
    args = dict(_EXPERIMENTS[name])
    for key, value in overrides.items():
        if key not in args:
            raise ConfigError(f"experiment {name!r} has no parameter {key!r}; "
                              f"known: {', '.join(args)}")
        kind = type(args[key])
        try:
            args[key] = kind(value)
        except ValueError:
            raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                              f"got {value!r}") from None

    t0 = time.perf_counter()
    report: Dict = {}
    params: Dict = {"seed": seed}

    def cover(model, text, engine):
        expr = parse(text, model.alphabet, allow_transvars=engine == "mc")
        rep = run_coverage(model, expr, engine, args["runs"], args["horizon"], args["delta"],
                           seed, name=name)
        params.update(rep.params)
        params["property"] = text
        return json.loads(rep.to_json()), rep.rows

    if name == "hypercube":
        report, series = cover(models.hypercube_pomc(3), "P[a a] - P[b b]", "pomc")
    elif name == "lending-pomc":
        report, series = cover(models.lending_pomc(), "P[y | a] - P[y | b]", "pomc")
        # formula-only projection of how the per-atom half-width tapers with
        # t; the observed intervals above stay wide at desk-scale horizons
        tau = report["params"]["tau_mix"]
        share = report["params"]["delta"] / 4.0
        projection = [
            {"t": int(t),
             "halfwidth_pointwise": ci_pomc_pointwise(share, int(t), 2, 0.0, 1.0, tau),
             "halfwidth_uniform": ci_pomc_uniform(share, int(t), 2, 0.0, 1.0, tau)}
            for t in np.unique(np.logspace(1, 9, 33).astype(int))
        ]
        report["projection"] = {"is_projection": True, "rows": projection}
    elif name == "lending-mc":
        report, series = cover(models.lending_mc(), "T[g->gy] - T[gbar->gbary]", "mc")
    elif name == "admission":
        report, series = cover(models.admission_mc(levels=9), models.social_burden_text(9), "mc")
    elif name == "fig3-ratio":
        series = fig3_ratio_series(delta=args["delta"])
    elif name == "fig4-uniform":
        series = fig4_uniform_series(delta=args["delta"])
    elif name == "table1-timing":
        series = timing_table(events=args["events"], seed=seed)
    else:  # nonconvergent
        series = [{"k": k, "t": t, "mean": m} for k, t, m in run_nonconvergent(args["k_max"])]
    report = report or {"name": name, "rows": series}
    params.update(args)  # in place for a coverage study, whose params hold these keys

    wall = time.perf_counter() - t0
    manifest = {"name": name, "seed": seed, "params": params,
                "wall_clock_s": wall,
                "per_step_s": wall / max(1, params.get("horizon", 1))}
    target = Path(out_dir) / name
    target.mkdir(parents=True, exist_ok=True)
    (target / "report.json").write_text(json.dumps(report, indent=2, default=float))
    _write_csv(target / "series.csv", series)
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest
