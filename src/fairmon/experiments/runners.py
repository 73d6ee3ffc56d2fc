"""Experiment drivers: coverage studies, bound comparisons, timing, soak.

Coverage over partially observed models is evaluated with a vectorized
re-implementation of the windowed monitors, which keeps hundred-run studies
at interactive speed.  Its point estimates divide cumulative sums where the
streaming monitors keep a running mean, so the two agree to rounding, not bit
for bit; recorded coverage reports pin this arithmetic, so it stays.  Fully
observed monitors are sequential (reshuffling draws), so those runs stream
through the real monitor and record the estimate trajectory.
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
                      split_delta)
from ..errors import ConfigError
from ..intervals import Interval
from ..markov import (ObservationModel, mixing_time_bound, simulate,
                      simulate_states, truth_value)
from ..mc import build_mc_monitor
from ..pomc import atom_window
from ..speclang.ast import (Add, Atom, Const, Expr, Inv, Mul, SeqProb, Sub,
                            TransVar, expression_size, fold, leaves)
from ..speclang.ranges import bse_range
from . import models

_INF = math.inf


# ---------------------------------------------------------------------------
# vectorized windowed-monitor evaluation (partially observed engine)

def _atom_eval_series(leaf, codes: np.ndarray, alpha_index: Dict[str, int]) -> np.ndarray:
    """Window evaluations x_1..x_{T-n+1} of one atom along a coded stream."""
    t_len = codes.shape[0]
    if isinstance(leaf, SeqProb):
        n = leaf.arity
        hit = np.zeros(t_len - n + 1, dtype=bool)
        for word in leaf.words:
            m = np.ones(t_len - n + 1, dtype=bool)
            for off, sym in enumerate(word):
                m &= codes[off:t_len - n + 1 + off] == alpha_index[sym]
            hit |= m
        return hit.astype(float)
    ref = leaf.ref
    n = ref.arity
    alphabet = {i: s for s, i in alpha_index.items()}
    src = [alphabet[int(c)] for c in codes]
    return np.array([ref.evaluate(tuple(src[i:i + n]))
                     for i in range(t_len - n + 1)], dtype=float)


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


# (lo, hi, point) array triples, the vectorized twin of CompositeMonitor's algebra
_SERIES = {
    Add: lambda _, a, b: (a[0] + b[0], a[1] + b[1], a[2] + b[2]),
    Sub: lambda _, a, b: (a[0] - b[1], a[1] - b[0], a[2] - b[2]),
    Mul: lambda _, a, b: (*_iv_mul(a[0], a[1], b[0], b[1]), _prod_arr(a[2], b[2])),
    Inv: lambda _, c: (*_iv_inv(c[0], c[1]), _recip(c[2])),
}


class PomcSeriesEvaluator:
    """Per-run composite-interval series for a windowed expression.

    The half-width arrays depend only on time, so they are computed once and
    shared across runs; each run then costs a handful of cumulative sums.
    """

    def __init__(self, expr: Expr, alphabet: Sequence[str], horizon: int,
                 delta: float, mode: str, tau_mix: float):
        self.expr = expr
        self.alphabet = tuple(alphabet)
        self.alpha_index = {s: i for i, s in enumerate(self.alphabet)}
        self.horizon = horizon
        self.mode = mode
        self.root_range = bse_range(expr)
        self.leaves = leaves(expr)
        shares = split_delta(delta, expr).shares() if self.leaves else []
        ci = ci_pomc_pointwise if mode == "pointwise" else ci_pomc_uniform
        self._atoms: List[Tuple[np.ndarray, int, float, float]] = []
        tables: Dict[Tuple, np.ndarray] = {}  # one per distinct (share, n, low, high)
        for leaf, share in zip(self.leaves, shares):
            _, n, low, high = atom_window(leaf)
            if (share, n, low, high) not in tables:
                eps = tables[share, n, low, high] = np.full(horizon + 1, np.nan)
                for t in range(n, horizon + 1):
                    eps[t] = ci(share, t, n, low, high, tau_mix)
            self._atoms.append((tables[share, n, low, high], n, low, high))
        self.warmup = max((a[1] for a in self._atoms), default=1)

    def run(self, codes: np.ndarray):
        """Return (lo, hi, point) arrays indexed by t = 1..horizon (index 0 unused)."""
        t_len = codes.shape[0]
        ts = np.arange(t_len + 1, dtype=float)
        series = []
        for leaf, (eps, n, low, high) in zip(self.leaves, self._atoms):
            x = _atom_eval_series(leaf, codes, self.alpha_index)
            means = np.full(t_len + 1, np.nan)
            means[n:] = np.cumsum(x) / np.maximum(ts[n:] - (n - 1), 1.0)
            lo = np.maximum(means - eps[:t_len + 1], low)
            hi = np.minimum(means + eps[:t_len + 1], high)
            series.append((lo, hi, means))
        atoms = iter(series)

        def const(node):
            c = np.full(t_len + 1, node.value)
            return c, c.copy(), c.copy()

        lo, hi, pt = fold(self.expr, {**_SERIES, Const: const,
                                      Atom: lambda _: next(atoms),
                                      SeqProb: lambda _: next(atoms)})
        lo = np.maximum(lo, self.root_range.lo)
        hi = np.minimum(hi, self.root_range.hi)
        return lo, hi, pt


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

    Records, per checkpoint, min/max of the point estimates and of the
    interval endpoints across runs, plus two coverage counts: how many runs
    contain the truth at the final time (pointwise monitors) and at every
    emitted time (uniform monitors).
    """
    truth = truth_value(model, expr)
    checkpoints = list(checkpoints or _default_checkpoints(horizon))
    if engine == "pomc":
        report = _coverage_pomc(model, expr, runs, horizon, delta, seed,
                                tau_mix, checkpoints, start, truth)
    elif engine == "mc":
        report = _coverage_mc(model, expr, runs, horizon, delta, seed,
                              checkpoints, start, truth)
    else:
        raise ConfigError(f"unknown engine {engine!r}")
    report.name = name
    return report


def _coverage_pomc(model, expr, runs, horizon, delta, seed, tau_mix,
                   checkpoints, start, truth) -> ExperimentReport:
    if tau_mix is None:
        tau_mix = mixing_time_bound(model).tau_mix
    alphabet = model.alphabet
    state_codes = model.label_codes(alphabet)
    ev_point = PomcSeriesEvaluator(expr, alphabet, horizon, delta, "pointwise", tau_mix)
    ev_unif = PomcSeriesEvaluator(expr, alphabet, horizon, delta, "uniform", tau_mix)
    warm = ev_point.warmup

    states = simulate_states(model, horizon, runs, seed, start=start)
    covered_final = 0
    covered_all = 0
    covered_at = {t: 0 for t in checkpoints}
    env = {t: {"point": [_INF, -_INF], "lo": [_INF, -_INF], "hi": [_INF, -_INF]}
           for t in checkpoints}
    for r in range(runs):
        codes = state_codes[states[r]]
        lo_p, hi_p, pt = ev_point.run(codes)
        if lo_p[horizon] <= truth <= hi_p[horizon]:
            covered_final += 1
        lo_u, hi_u, _ = ev_unif.run(codes)
        sl = slice(warm, horizon + 1)
        if bool(np.all((lo_u[sl] <= truth) & (truth <= hi_u[sl]))):
            covered_all += 1
        for t in checkpoints:
            if t < warm:
                continue
            if lo_p[t] <= truth <= hi_p[t]:
                covered_at[t] += 1
            e = env[t]
            e["point"][0] = min(e["point"][0], pt[t])
            e["point"][1] = max(e["point"][1], pt[t])
            e["lo"][0] = min(e["lo"][0], lo_p[t])
            e["lo"][1] = max(e["lo"][1], lo_p[t])
            e["hi"][0] = min(e["hi"][0], hi_p[t])
            e["hi"][1] = max(e["hi"][1], hi_p[t])
    rows = [{"t": t, "truth": truth, "covered": covered_at[t],
             "point_min": env[t]["point"][0], "point_max": env[t]["point"][1],
             "lo_min": env[t]["lo"][0], "lo_max": env[t]["lo"][1],
             "hi_min": env[t]["hi"][0], "hi_max": env[t]["hi"][1]}
            for t in checkpoints if t >= warm]
    return ExperimentReport(
        name="coverage", seed=seed,
        params={"engine": "pomc", "runs": runs, "horizon": horizon,
                "delta": delta, "tau_mix": tau_mix, "start": start},
        truth=truth,
        coverage={"runs": runs, "pointwise_final": covered_final,
                  "uniform_all": covered_all},
        rows=rows)


def _coverage_mc(model, expr, runs, horizon, delta, seed, checkpoints,
                 start, truth) -> ExperimentReport:
    alphabet = tuple(model.labels[s] for s in model.states)
    covered_final = 0
    covered_all = 0
    env = {t: {"point": [_INF, -_INF], "lo": [_INF, -_INF], "hi": [_INF, -_INF]}
           for t in checkpoints}
    states = simulate_states(model, horizon, runs, seed, start=start)
    names = list(alphabet)
    for r in range(runs):
        monitor = build_mc_monitor(expr, delta, "pointwise", seed=seed + 7919 * r,
                                   record_trace=True)
        if monitor.trace is None:
            raise ConfigError("coverage for divided expressions is not traced; "
                              "use a division-free PSE")
        symbols = [names[c] for c in states[r]]
        monitor.feed(symbols)
        trace = monitor.trace
        s2 = monitor.sigma_sq
        rng_lo, rng_hi = monitor.value_range.lo, monitor.value_range.hi
        if trace:
            _, n_fin, mu_fin = trace[-1]
            eps = ci_mc_pointwise(n_fin, delta, s2)
            if max(mu_fin - eps, rng_lo) <= truth <= min(mu_fin + eps, rng_hi):
                covered_final += 1
            ok = True
            for _, n, mu in trace:
                e = ci_mc_uniform(n, delta, s2)
                if not (max(mu - e, rng_lo) <= truth <= min(mu + e, rng_hi)):
                    ok = False
                    break
            if ok:
                covered_all += 1
            idx = 0
            last = None
            for t in checkpoints:
                while idx < len(trace) and trace[idx][0] <= t:
                    last = trace[idx]
                    idx += 1
                if last is None:
                    continue
                _, n, mu = last
                eps = ci_mc_pointwise(n, delta, s2)
                e = env[t]
                e["point"][0] = min(e["point"][0], mu)
                e["point"][1] = max(e["point"][1], mu)
                e["lo"][0] = min(e["lo"][0], max(mu - eps, rng_lo))
                e["lo"][1] = max(e["lo"][1], max(mu - eps, rng_lo))
                e["hi"][0] = min(e["hi"][0], min(mu + eps, rng_hi))
                e["hi"][1] = max(e["hi"][1], min(mu + eps, rng_hi))
    rows = [{"t": t, "truth": truth,
             "point_min": env[t]["point"][0], "point_max": env[t]["point"][1],
             "lo_min": env[t]["lo"][0], "lo_max": env[t]["lo"][1],
             "hi_min": env[t]["hi"][0], "hi_max": env[t]["hi"][1]}
            for t in checkpoints if env[t]["point"][0] != _INF]
    return ExperimentReport(
        name="coverage", seed=seed,
        params={"engine": "mc", "runs": runs, "horizon": horizon,
                "delta": delta, "start": start},
        truth=truth,
        coverage={"runs": runs, "pointwise_final": covered_final,
                  "uniform_all": covered_all},
        rows=rows)


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
        alphabet = tuple(model.labels[s] for s in model.states)
        expr = parse(text, alphabet)
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
    alphabet = tuple(model.labels[s] for s in model.states)
    expr = parse(text, alphabet)
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


def run_named_experiment(name: str, seed: int, out_dir, **overrides) -> Dict:
    """Run one of the built-in experiments and write its artifacts.

    Produces ``<out-dir>/<name>/{report.json, series.csv, manifest.json}``
    and returns the manifest.
    """
    from pathlib import Path
    from ..speclang.parser import parse

    t0 = time.perf_counter()
    target = Path(out_dir) / name
    target.mkdir(parents=True, exist_ok=True)
    report: Dict = {}
    series: List[Dict] = []
    params: Dict = {"seed": seed}

    def cover(model, text, engine, tau=None, runs=100, horizon=100_000,
              delta=0.05, allow_tv=True):
        runs = int(overrides.get("runs", runs))
        horizon = int(overrides.get("horizon", horizon))
        delta = float(overrides.get("delta", delta))
        alphabet = model.alphabet if engine == "pomc" else tuple(model.labels[s] for s in model.states)
        expr = parse(text, alphabet, allow_transvars=allow_tv)
        rep = run_coverage(model, expr, engine, runs, horizon, delta, seed,
                           tau_mix=tau, name=name)
        params.update(rep.params)
        params["property"] = text
        return json.loads(rep.to_json()), rep.rows

    if name == "hypercube":
        model = models.hypercube_pomc(3)
        report, series = cover(model, "P[a a] - P[b b]", "pomc", allow_tv=False)
    elif name == "lending-pomc":
        model = models.lending_pomc()
        report, series = cover(model, "P[y | a] - P[y | b]", "pomc", allow_tv=False)
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
        model = models.lending_mc()
        report, series = cover(model, "T[g->gy] - T[gbar->gbary]", "mc")
    elif name == "admission":
        model = models.admission_mc(levels=9)
        report, series = cover(model, models.social_burden_text(9), "mc",
                               runs=int(overrides.get("runs", 20)))
    elif name == "fig3-ratio":
        series = fig3_ratio_series(delta=float(overrides.get("delta", 0.05)))
        report = {"name": name, "rows": series}
        params["delta"] = float(overrides.get("delta", 0.05))
    elif name == "fig4-uniform":
        series = fig4_uniform_series(delta=float(overrides.get("delta", 0.05)))
        report = {"name": name, "rows": series}
        params["delta"] = float(overrides.get("delta", 0.05))
    elif name == "table1-timing":
        events = int(overrides.get("events", 200_000))
        series = timing_table(events=events, seed=seed)
        report = {"name": name, "rows": series}
        params["events"] = events
    elif name == "nonconvergent":
        k_max = int(overrides.get("k_max", 30))
        rows = run_nonconvergent(k_max)
        series = [{"k": k, "t": t, "mean": m} for k, t, m in rows]
        report = {"name": name, "rows": series}
        params["k_max"] = k_max
    else:
        raise ConfigError(
            f"unknown experiment {name!r}; available: fig3-ratio, fig4-uniform, "
            "lending-mc, admission, lending-pomc, hypercube, table1-timing, "
            "nonconvergent")

    wall = time.perf_counter() - t0
    manifest = {"name": name, "seed": seed, "params": params,
                "wall_clock_s": wall,
                "per_step_s": wall / max(1, params.get("horizon", 1))}
    (target / "report.json").write_text(json.dumps(report, indent=2, default=float))
    _write_csv(target / "series.csv", series)
    (target / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest
