"""Finite Markov chains with full or partial observation.

Provides model validation, stream simulation, the stationary distribution,
numerical mixing-time bounds, and exact model-based evaluation of
specifications, which serves as the ground-truth oracle for the monitors.

Simulation is inverse-CDF sampling: a state s moves to
``bisect_right(cumsum(row s)[:-1], u)`` for a uniform u.  For a small or
many-run study the sampler gives exactly those states without a search per
step: it ranks each uniform among the breakpoints of all rows, looks the
successor up in a (rank, state) table, and for few runs composes the
table's maps over segments of a block in numpy.  Few runs of a wide chain
keep the search per step, which is faster there (see ``_sample``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cache
from itertools import chain
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from .errors import ConfigError, EvaluationError, ModelError
from .speclang.ast import (ARITHMETIC, Atom, Const, Expr, Inv, SeqProb,
                           TransVar, const_value, fold, reject)

_ROW_TOL = 1e-9
_FIXPOINT_TOL = 1e-10
_MIXING_TV = 0.25  # the total-variation distance that defines the mixing time
_MIXING_MAX_STEPS = 100_000
_BLOCK = 4096  # uniforms the sampler draws at a time


def _levels(adj: np.ndarray) -> np.ndarray:
    """Breadth-first distance of each state from state 0 along ``adj``; -1 if unreachable."""
    level = np.full(len(adj), -1)
    level[0] = 0
    frontier = level == 0
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & (level < 0)
        level[frontier] = level.max() + 1
    return level


@dataclass(frozen=True)
class ObservationModel:
    """A finite chain with a total labeling of states by observation symbols.

    ``transitions`` is row stochastic: entry (i, j) is the probability of
    moving from state i to state j.  When the labeling is a bijection the
    model is fully observed and transition variables are meaningful.
    """

    states: Tuple[str, ...]
    transitions: np.ndarray
    initial: np.ndarray
    labels: Dict[str, str]
    _index: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.transitions, dtype=float)
        lam = np.asarray(self.initial, dtype=float)
        k = len(self.states)
        if len(set(self.states)) != k or k == 0:
            raise ModelError("states must be non-empty and distinct")
        if m.shape != (k, k):
            raise ModelError(f"transition matrix must be {k}x{k}, got {m.shape}")
        # written so that NaN fails the checks
        if not np.all((m >= -1e-15) & (m <= 1.0 + 1e-12)):
            raise ModelError("transition entries must lie in [0, 1]")
        rows = m.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > _ROW_TOL):
            bad = int(np.argmax(np.abs(rows - 1.0)))
            raise ModelError(f"row {self.states[bad]!r} sums to {rows[bad]!r}, not 1")
        if lam.shape != (k,):
            raise ModelError("initial distribution has the wrong length")
        if not (np.all(lam >= -1e-15) and abs(lam.sum() - 1.0) <= _ROW_TOL):
            raise ModelError("initial distribution must be a probability vector")
        missing = [s for s in self.states if s not in self.labels]
        if missing:
            raise ModelError(f"labeling is not total; missing {missing}")
        object.__setattr__(self, "transitions", m)
        object.__setattr__(self, "initial", lam)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def is_fully_observed(self) -> bool:
        values = list(self.labels.values())
        return len(set(values)) == len(values)

    @property
    def alphabet(self) -> Tuple[str, ...]:
        seen = []
        for s in self.states:
            o = self.labels[s]
            if o not in seen:
                seen.append(o)
        return tuple(seen)

    def state_index(self, state: str) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise ModelError(f"unknown state {state!r}") from None

    def label_codes(self) -> np.ndarray:
        """Observation index of each state in the order of ``alphabet``."""
        code = {o: i for i, o in enumerate(self.alphabet)}
        return np.array([code[self.labels[s]] for s in self.states], dtype=np.int64)

    def is_irreducible(self) -> bool:
        adj = self.transitions > 0
        return bool((_levels(adj) >= 0).all() and (_levels(adj.T) >= 0).all())

    def period(self) -> int:
        """gcd of cycle lengths; 1 means aperiodic.  Requires irreducibility."""
        if not self.is_irreducible():
            raise ModelError("period is defined for irreducible chains only")
        adj = self.transitions > 0
        level = _levels(adj)
        # each cycle length is a sum of these edge offsets; the period divides each one
        u, v = np.nonzero(adj)
        return int(np.gcd.reduce(np.abs(level[u] + 1 - level[v])))

    def to_json(self) -> str:
        return json.dumps({
            "states": list(self.states),
            "transitions": self.transitions.tolist(),
            "initial": self.initial.tolist(),
            "labels": dict(self.labels),
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "ObservationModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"model file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ModelError("model file must hold a JSON object")
        for key in ("states", "transitions", "initial", "labels"):
            if key not in data:
                raise ModelError(f"model file is missing {key!r}")
        try:
            states = tuple(str(s) for s in data["states"])
            transitions = np.asarray(data["transitions"], dtype=float)
            initial = np.asarray(data["initial"], dtype=float)
            labels = {str(k): str(v) for k, v in data["labels"].items()}
        except (AttributeError, TypeError, ValueError) as exc:
            # a field of the wrong type, or rows of different lengths
            raise ModelError(f"model file is malformed: {exc}") from None
        return ObservationModel(states, transitions, initial, labels)


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray
    residual: float


@dataclass(frozen=True)
class MixingBound:
    tau_mix: float

    def __post_init__(self):
        if self.tau_mix < 1.0:
            raise ModelError("mixing-time bound must be at least one step")


def stationary_distribution(model: ObservationModel) -> StationaryDistribution:
    """Solve pi M = pi, sum(pi) = 1 by a direct linear solve.

    Falls back to the null space of (M^T - I) when the least-squares route
    is not accurate enough.  Raises for reducible chains, which have no
    unique fixpoint.
    """
    if not model.is_irreducible():
        raise ModelError("stationary distribution needs an irreducible chain")
    m = model.transitions
    k = model.n_states
    a = np.vstack([m.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    residual = float(np.abs(pi @ m - pi).sum())
    if residual > _FIXPOINT_TOL:
        # the last right singular vector spans the null space of an irreducible chain
        cand = np.abs(np.linalg.svd(m.T - np.eye(k))[2][-1])
        cand /= cand.sum()
        r2 = float(np.abs(cand @ m - cand).sum())
        if r2 < residual:
            pi, residual = cand, r2
    if residual > _FIXPOINT_TOL:
        raise ModelError(f"stationary fixpoint residual {residual:.2e} above tolerance")
    return StationaryDistribution(pi=pi, residual=residual)


def mixing_time_bound(model: ObservationModel) -> MixingBound:
    """Smallest t with worst-case total-variation distance to pi <= 1/4.

    Computed by powering the transition matrix; a valid input for the
    partially-observed confidence bounds.  Requires irreducibility and
    aperiodicity, otherwise the distance never settles.
    """
    if model.n_states > 10_000:
        raise ModelError("matrix powering is limited to 10^4 states")
    if not model.is_irreducible():
        raise ModelError("mixing time needs an irreducible chain")
    if (period := model.period()) != 1:
        raise ModelError(f"chain is periodic (period {period}); no finite mixing time")
    pi = stationary_distribution(model).pi
    m = model.transitions
    dist = m.copy()
    for t in range(1, _MIXING_MAX_STEPS + 1):
        tv = 0.5 * float(np.abs(dist - pi).sum(axis=1).max())
        if tv <= _MIXING_TV:
            return MixingBound(tau_mix=float(max(t, 1)))
        dist = dist @ m
    raise ModelError(f"total-variation distance did not reach {_MIXING_TV} "
                     f"within {_MIXING_MAX_STEPS} steps")


def _start_distribution(model: ObservationModel, start: str) -> np.ndarray:
    if start == "initial":
        return model.initial
    if start == "stationary":
        return stationary_distribution(model).pi
    raise ModelError(f"unknown start mode {start!r} (use 'initial' or 'stationary')")


def _check_sizes(**sizes: int):
    for name, value in sizes.items():
        if value < 0:
            raise ConfigError(f"{name} must be nonnegative, got {value}")


def _walk(rows: np.ndarray, state: np.ndarray, draws) -> Iterator[np.ndarray]:
    """One ``bisect_right`` per uniform, run by run: fastest for few runs of a
    wide chain, whose table would be large."""
    rows, state = rows.tolist(), state.tolist()
    for u in draws:
        block = u.T.tolist()
        for r, path in enumerate(block):
            s = state[r]
            for i, x in enumerate(path):
                path[i], s = s, bisect_right(rows[s], x)
            state[r] = s
        yield np.array(block, dtype=np.int64).reshape(u.shape[::-1])


def _gather(table: np.ndarray, n: int, state: np.ndarray, ranks) -> Iterator[np.ndarray]:
    """One ``take`` in the table per step, over all runs: fastest for many runs."""
    for rank in ranks:
        rank *= n
        path = np.empty(rank.shape, dtype=np.int64)
        for i in range(len(rank)):
            path[i] = state
            state = table.take(rank[i] + state)
        yield path.T


def _compose(table: np.ndarray, n: int, state: np.ndarray, ranks) -> Iterator[np.ndarray]:
    """Segment maps composed over all start states: fastest for few runs of a
    small chain.  A block of width steps is cut into segments of about
    sqrt(width) steps; one ``take`` per step composes every segment's map,
    one gather per segment walks the runs from segment start to segment
    start, and one gather fills the segments in."""
    span = len(table) // n - 1  # the identity rank, which pads the last segment
    runs = len(state)
    base = np.arange(runs) * n  # run r in state s is r * n + s, its map entry's index
    for rank in ranks:
        width = len(rank)
        seg = math.isqrt(width)
        count = -(-width // seg)
        padded = np.full((count, seg, runs), span)
        padded.reshape(count * seg, runs)[:width] = rank
        padded *= n
        # maps[i, j, r, s]: run r's state i steps into segment j from state s
        maps = np.empty((seg, count, runs, n), dtype=np.int64)
        maps[0] = np.arange(n)
        for i in range(1, seg):
            table.take(padded[:, i - 1, :, None] + maps[i - 1], out=maps[i])
        ends = (table.take(padded[:, -1, :, None] + maps[-1]) + base[:, None]).reshape(count, -1)
        starts = np.empty((count, runs), dtype=np.int64)
        at = base + state
        for j in range(count):
            starts[j] = at
            at = ends[j].take(at)
        state = at - base
        starts += np.arange(count)[:, None] * (runs * n)  # segment j's maps start there
        path = maps.reshape(seg, -1).take(starts, axis=1)
        yield path.transpose(2, 1, 0).reshape(runs, count * seg)[:, :width]


def _core(n: int, runs: int, span: Callable[[], int]):
    """The core that was fastest where timed across 7-1024 states and 1-1000
    runs (see CHANGES.md); ``span()``, the table's ranks, is asked for only
    when the table's size decides.  The walk costs 0.12-0.3 us per uniform; a
    gather step costs about 1 us over all runs, plus more once the table
    outgrows the cache; composing costs 3-14 ns per state per uniform."""
    if n <= 12 and n * runs <= 192:
        return _compose
    if runs >= 12 and span() * n <= 64 * _BLOCK:
        return _gather
    return _walk


def _distinct_cuts(rows: np.ndarray) -> np.ndarray:
    """The rows' distinct breakpoints, sorted."""
    cuts = np.sort(rows, axis=None)  # np.unique would import numpy.ma
    distinct = np.ones(len(cuts), dtype=bool)
    distinct[1:] = cuts[1:] != cuts[:-1]
    return cuts[distinct]


def _sample(model: ObservationModel, steps: int, runs: int, seed: int,
            start: str) -> Iterator[np.ndarray]:
    """Yield ``runs`` inverse-CDF trajectories in blocks of shape (runs, width).

    Each run moves from state s to ``bisect_right(cumsum(row s)[:-1], u)``
    for a uniform u.  The draws are one uniform per run for the start state,
    then step-major blocks of about ``_BLOCK`` uniforms.  A uniform's rank,
    the number of the rows' distinct breakpoints ("cuts") at or below it,
    fixes that successor for every state at once, so a (rank, state) table
    built with one search per row replaces the search per step in
    ``_gather`` and ``_compose``; ``_walk`` searches per step.  Every core
    gives the same states, and ``_core`` picks the fastest.
    """
    cum0 = np.cumsum(_start_distribution(model, start))[:-1].tolist()
    n = model.n_states
    rows = np.cumsum(model.transitions, axis=1)[:, :-1]  # u past all: last state
    rng = np.random.default_rng(seed)
    state = np.array([bisect_right(cum0, u) for u in rng.random(runs).tolist()],
                     dtype=np.int64)
    per_block = max(1, _BLOCK // max(runs, 1))
    draws = (rng.random((min(per_block, steps - t), runs)) for t in range(0, steps, per_block))
    # the walk uses no ranks, so the breakpoints are sorted only for a table core
    distinct = cache(lambda: _distinct_cuts(rows))
    core = _core(n, runs, lambda: len(distinct()) + 1)
    if core is _walk:
        yield from _walk(rows, state, draws)
        return
    cuts = distinct()
    span = len(cuts) + 1  # ranks run from 0 to len(cuts)
    # table[rank * n + s] = bisect_right(rows[s], u) for any u of that rank;
    # rank 0 lies below every cut, and the last rank, one past them, is the identity
    table = np.zeros((span + 1, n), dtype=np.int64)
    for s in range(n):
        table[1:span, s] = np.searchsorted(rows[s], cuts, side="right")
    table[span] = np.arange(n)
    ranks = (np.searchsorted(cuts, u, side="right") for u in draws)
    yield from core(table.ravel(), n, state, ranks)


def simulate(model: ObservationModel, steps: int, seed: int,
             start: str = "initial") -> Iterator[str]:
    """Lazily yield the observation sequence of one sampled trajectory."""
    _check_sizes(steps=steps)
    labels = [model.labels[s] for s in model.states]
    return chain.from_iterable(map(labels.__getitem__, block[0].tolist())
                               for block in _sample(model, steps, 1, seed, start))


def simulate_states(model: ObservationModel, steps: int, runs: int, seed: int,
                    start: str = "initial") -> np.ndarray:
    """State-index trajectories for several runs at once, shape (runs, steps)."""
    _check_sizes(steps=steps, runs=runs)
    out = np.empty((runs, steps), dtype=np.int64)
    t = 0
    for block in _sample(model, steps, runs, seed, start):
        out[:, t:t + block.shape[1]] = block
        t += block.shape[1]
    return out


def _reciprocal(_, v: float) -> float:
    if v == 0.0:
        raise EvaluationError("division by zero in model-based evaluation")
    return 1.0 / v


# real arithmetic shared by both oracles; each adds its own leaves
_REALS = {**ARITHMETIC, Const: const_value, Inv: _reciprocal}


def truth_value_pse(model: ObservationModel, expr: Expr) -> float:
    """Exact value of a PSE: each transition variable is a matrix entry."""
    if not model.is_fully_observed:
        raise ModelError("PSE evaluation needs a fully observed chain")
    if not model.is_irreducible():
        raise ModelError("PSE evaluation needs an irreducible chain")
    obs_to_state = {model.labels[s]: s for s in model.states}

    def entry(node: TransVar) -> float:
        for name in (node.source, node.target):
            if name not in obs_to_state:
                raise EvaluationError(f"unknown state {name!r} in transition variable")
        i = model.state_index(obs_to_state[node.source])
        j = model.state_index(obs_to_state[node.target])
        return float(model.transitions[i, j])

    not_pse = reject(EvaluationError, "{node} node is not part of a PSE")
    return fold(expr, {**_REALS, TransVar: entry, Atom: not_pse, SeqProb: not_pse})


def _atom_expectation(model: ObservationModel, fn, arity: int,
                      pi: np.ndarray) -> float:
    """Stationary expectation of an arity-n window function, exactly.

    Enumerates observation words of length n; the probability of each word
    is accumulated by masked vector-matrix products, so the cost is
    |O|^n * n matvecs.
    """
    alphabet = model.alphabet
    masks = {o: np.array([model.labels[s] == o for s in model.states], dtype=float)
             for o in alphabet}
    m = model.transitions
    total = 0.0

    def rec(word, vec):
        nonlocal total
        if len(word) == arity:
            p = float(vec.sum())
            if p > 0.0:
                total += p * fn(tuple(word))
            return
        nxt = vec @ m
        for o in alphabet:
            rec(word + [o], nxt * masks[o])

    for o in alphabet:
        rec([o], pi * masks[o])
    return total


def truth_value_bse(model: ObservationModel, expr: Expr,
                    window_cap: int = 6) -> float:
    """Exact model-based value of a windowed expression.

    Every atom is replaced by its exact stationary expectation and the
    arithmetic is applied to the resulting reals.  Atom arities above
    ``window_cap`` are rejected: the enumeration is |O|^n.
    """
    if not model.is_irreducible():
        raise ModelError("model-based evaluation needs an irreducible chain")
    pi = stationary_distribution(model).pi
    n_obs = len(model.alphabet)

    def atom_value(fn, arity: int) -> float:
        if arity > window_cap:
            raise EvaluationError(
                f"atom arity {arity} exceeds the exact-oracle window cap {window_cap}")
        if n_obs ** arity > 2_000_000:
            raise EvaluationError("observation-word enumeration too large")
        return _atom_expectation(model, fn, arity, pi)

    return fold(expr, {
        **_REALS,
        Atom: lambda n: atom_value(n.ref.evaluate, n.ref.arity),
        SeqProb: lambda n: atom_value(n.indicator, n.arity),
        TransVar: reject(EvaluationError, "transition variables are evaluated "
                         "with the fully-observed oracle"),
    })


def truth_value(model: ObservationModel, expr: Expr, window_cap: int = 6) -> float:
    """Dispatch to the transition-entry oracle for PSEs, else the windowed one."""
    from .speclang.ast import is_pse, leaves
    if is_pse(expr) and any(isinstance(leaf, TransVar) for leaf in leaves(expr)):
        return truth_value_pse(model, expr)
    return truth_value_bse(model, expr, window_cap)
