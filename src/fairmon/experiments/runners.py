"""Experiment drivers: coverage studies, bound comparisons, timing, soak.

A coverage study simulates every run up front, then one loop per run asks the
engine for its pointwise intervals and points at the stops (the checkpoints
and the horizon) and whether its uniform verdicts all held, and folds them
into the per-checkpoint envelope and the coverage counts.  Both engines'
per-run steps return the stop values as ``{stop: value}`` maps.

Over partially observed models the verdicts come from a vectorized
re-implementation of the windowed monitors, which keeps hundred-run studies
at interactive speed.  One evaluator pass per run serves both modes: each
atom's window values and means are computed once over every t; the points
and the pointwise intervals are folded at the stops alone, and only the
uniform intervals, which the study checks at every emitted t, over every t.
Its point estimates divide cumulative sums where the streaming monitors keep
a running mean, so the two agree to rounding, not bit for bit; recorded
coverage reports pin this arithmetic, so it stays.  Fully observed monitors
are sequential (reshuffling draws), so each run streams through the real
uniform monitor: its verdicts give the uniform count, and its running mean
and sample count at each stop give the pointwise interval.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..bounds import (baseline_union_interval, ci_mc_pointwise, ci_mc_uniform,
                      ci_pomc_pointwise, ci_pomc_uniform, naive_uniform_lift,
                      pomc_halfwidth_blocks)
from ..errors import ConfigError
from ..intervals import Interval
from ..markov import (ObservationModel, mixing_time_bound, simulate,
                      simulate_states, truth_value)
from ..mc import build_mc_monitor
from ..pomc import INCONCLUSIVE, plan
from ..speclang.ast import (Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub,
                            TransVar, contains_division, expression_size, fold)
from ..speclang.normal_form import decompose_division, to_polynomial
from ..speclang.ranges import bse_range
from . import models

_INF = math.inf


# ---------------------------------------------------------------------------
# vectorized windowed-monitor evaluation (partially observed engine)

def _prod_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` of two arrays of one shape, with 0 * inf = 0.  Only a NaN
    product can be such a 0 * inf, so the zero masks are built only when
    there is one, and narrow the NaN mask in place."""
    with np.errstate(invalid="ignore"):
        p = a * b
    fix = np.isnan(p)
    if fix.any():
        fix &= (a == 0.0) | (b == 0.0)
        np.copyto(p, 0.0, where=fix)
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
    """Per-run composite intervals of a windowed expression: the pointwise
    intervals and the points at a few stops, the uniform intervals at every t.

    Each atom's value table comes from :func:`fairmon.pomc.plan`, and
    ``codes`` maps each symbol's index in the alphabet to its plan code, so
    a run reads its window values with one gather of one word array per
    arity.  The half-widths and the window counts depend only on time, so
    they are computed once and shared across runs.  Each run costs one
    cumulative sum per atom over every t; the points and the pointwise
    intervals are then folded over the stops alone, and only the uniform
    intervals over every t.  Elementwise operations give the same bits on a
    subset as on the whole array, so the values at the stops are those of a
    fold over every t.
    """

    def __init__(self, expr: Expr, alphabet: Sequence[str], horizon: int,
                 delta: float, tau_mix: float, stops: Sequence[int]):
        if not all(0 <= t <= horizon for t in stops):
            raise ConfigError(f"stops must lie in [0, {horizon}]")
        self.expr = expr
        self.horizon = horizon
        self.root_range = bse_range(expr)
        self.stops = np.array(stops, dtype=np.int64)
        codes, self.base, atoms = plan(expr, delta, alphabet)
        self.codes = np.array([codes[s] for s in alphabet], dtype=np.int64)
        # each mode's half-widths at every t, once per distinct (share, n, low, high)
        keys = list(dict.fromkeys(key for _, key in atoms))
        pointwise, uniform = (
            dict(zip(keys, pomc_halfwidth_blocks(keys, tau_mix, mode)(0, horizon + 1)))
            for mode in (False, True))
        # (values, n, low, high, pointwise eps at the stops, uniform eps at every t)
        self._atoms: List[Tuple[np.ndarray, int, float, float, np.ndarray, np.ndarray]] = [
            (np.array(table, dtype=float), *key[1:], pointwise[key][self.stops], uniform[key])
            for table, key in atoms]
        # window count t - (n - 1) at t = n..horizon, per arity
        self._counts = {n: np.arange(1.0, horizon - n + 2) for _, n, *_ in self._atoms}
        self.warmup = max(self._counts, default=1)

    def run(self, codes: np.ndarray):
        """Return the pointwise ``(lo, hi, point)`` arrays aligned with the
        stops and the uniform ``(lo, hi)`` arrays indexed by t = 0..horizon,
        for plan ``codes`` of length horizon; a value before its atoms'
        windows fill is NaN."""
        t_len = codes.shape[0]
        if t_len != self.horizon:
            raise ConfigError(f"need {self.horizon} codes, got {t_len}")
        words = {}
        for n in self._counts:
            windows = t_len - n + 1
            word = codes[:windows]
            for off in range(1, n):
                word = word * self.base + codes[off:windows + off]
            words[n] = word
        at = self.stops
        means, pointwise, uniform = [], [], []
        for values, n, low, high, eps_at, eps in self._atoms:
            m = np.full(t_len + 1, np.nan)
            m[n:] = np.cumsum(values[words[n]]) / self._counts[n]
            uniform.append((np.maximum(m - eps, low), np.minimum(m + eps, high)))
            m = m[at]
            means.append(m)
            pointwise.append((np.maximum(m - eps_at, low), np.minimum(m + eps_at, high)))

        def fold_series(algebra, leaf_series, const):
            nxt = iter(leaf_series).__next__
            return fold(self.expr, {**algebra, Const: const,
                                    Atom: lambda _: nxt(), SeqProb: lambda _: nxt()})

        def clip(bounds):
            lo, hi = bounds
            return np.maximum(lo, self.root_range.lo), np.minimum(hi, self.root_range.hi)

        def consts(size):
            return lambda node: (np.full(size, node.value), np.full(size, node.value))

        pt = fold_series(_POINTS, means, lambda node: np.full(len(at), node.value))
        lo, hi = clip(fold_series(_BOUNDS, pointwise, consts(len(at))))
        return (lo, hi, pt), clip(fold_series(_BOUNDS, uniform, consts(t_len + 1)))


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
    stops = sorted({*checkpoints, horizon})
    if engine == "pomc":
        if tau_mix is None:
            tau_mix = mixing_time_bound(model).tau_mix
        params["tau_mix"] = tau_mix
        run = _pomc_run(model, expr, horizon, delta, tau_mix, truth, stops)
    elif engine == "mc":
        run = _mc_run(model, expr, delta, seed, truth, stops)
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


def _pomc_run(model, expr, horizon, delta, tau_mix, truth, stops):
    """Per-run step of the windowed engine: one vectorized pass for both modes.

    The pointwise intervals and the points come at the stops (the checkpoints
    and the horizon); the uniform intervals are checked at every emitted t.
    """
    evaluator = PomcSeriesEvaluator(expr, model.alphabet, horizon, delta, tau_mix, stops)
    state_codes = evaluator.codes[model.label_codes()]  # each state's plan code
    warm = evaluator.warmup
    emitted = slice(warm, horizon + 1)

    def run(_, states):
        pointwise, (lo, hi) = evaluator.run(state_codes[states])
        return (warm, tuple(dict(zip(stops, a.tolist())) for a in pointwise),
                bool(np.all((lo[emitted] <= truth) & (truth <= hi[emitted]))))

    return run


def _mc_run(model, expr, delta, seed, truth, stops):
    """Per-run step of the fully observed engine: one uniform monitor per run.

    Its verdicts give the uniform count.  At each stop (the checkpoints and
    the horizon) its running mean and sample count give the pointwise
    interval, which differs from the uniform one only in the half-width.
    """
    names = [model.labels[s] for s in model.states]
    probe = build_mc_monitor(expr, delta, "uniform", alphabet=model.alphabet)
    if contains_division(expr) and not decompose_division(to_polynomial(expr)).is_trivial:
        raise ConfigError("mc coverage studies need an expression that is division "
                          "free once normalized; a + b / c is not supported")
    s2, lo_range, hi_range = probe.sigma_sq, probe.value_range.lo, probe.value_range.hi

    def run(r, states):
        monitor = build_mc_monitor(expr, delta, "uniform", seed + 7919 * r, model.alphabet)
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
        monitor = build_mc_monitor(expr, delta, "pointwise", seed, model.alphabet)
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
    monitor = build_mc_monitor(expr, delta, "pointwise", seed, model.alphabet)
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
