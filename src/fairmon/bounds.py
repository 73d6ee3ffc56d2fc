"""Confidence-interval half-widths and confidence-budget bookkeeping.

Two families of bounds are provided.  For partially observed chains the
half-widths come from a bounded-difference concentration inequality scaled
by the chain's mixing time; the time-uniform variant replaces ln(2/delta)
with ln(pi^2 t^2 / (3 delta)), which pays for a union bound over all times.
For fully observed chains the per-outcome averages are i.i.d., so the
pointwise width is plain Hoeffding and the uniform width is a stitched
(geometric-epoch) martingale bound.

Natural logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .intervals import Interval
from .speclang.ast import (ARITHMETIC, Atom, Const, Expr, Inv, SeqProb,
                           TransVar, count_atoms, fold)

_PI = math.pi


# The checks are written so that NaN fails them.
def check_delta(delta: float):
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"confidence parameter must be in (0,1), got {delta}")


def squared_width(a: float, b: float) -> float:
    """``(b - a) ** 2``; a range too wide for that to be a float is a ConfigError."""
    try:
        return (b - a) ** 2
    except OverflowError:
        raise ConfigError(f"range [{a}, {b}] is too wide: its squared width "
                          "overflows a float") from None


def _check_sigma_sq(sigma_sq: float):
    if not sigma_sq >= 0.0:
        raise ConfigError(f"sigma^2 must be nonnegative, got {sigma_sq}")


def pomc_halfwidth_blocks(keys: Sequence[Tuple[float, int, float, float]], tau_mix: float,
                          uniform: bool) -> Callable[[int, int], List[np.ndarray]]:
    """``block(start, stop)``: the half-widths at t in [start, stop) of each
    key (delta, n, a, b), an arity-n atom with range [a, b] at share delta,
    one float64 array per key, NaN below n:

    sqrt( L * t * n^2 * (b-a)^2 * 9 * tau_mix / (2 (t-(n-1))^2) ),

    L = ln(pi^2 t^2 / (3 delta)) uniform, ln(2/delta) pointwise.  Every
    ``pomc`` half-width comes from here: the monitor's block tables, the
    coverage evaluator and ``ci_pomc_*``.  The arguments are checked here,
    once.  The display keeps its operand order over a float t, exact below
    2**53, so each integer product (t n^2, (t - (n-1))^2, pi^2 t t) rounds
    once, as over Python ints.  ``np.sqrt`` is correctly rounded, as
    ``math.sqrt`` is; numpy's log may differ from libm's in the last bit, so
    each share's L is ``math.log`` per element, once per block.  A product
    that overflows is inf, as a Python float's is; a range of one value
    gives 0.0.
    """
    if not tau_mix >= 1.0:
        raise ConfigError(f"mixing-time bound must be >= 1, got {tau_mix}")
    widths = []
    for delta, n, a, b in keys:
        check_delta(delta)
        if n < 1:
            raise ConfigError(f"need t >= n >= 1, got n={n}")
        if not b >= a:
            raise ConfigError(f"invalid atom range [{a}, {b}]")
        widths.append((delta, n, None if b == a else squared_width(a, b)))
    shares = {delta for delta, _, sq in widths if sq is not None}

    def block(start: int, stop: int) -> List[np.ndarray]:
        t = np.arange(start, stop, dtype=float)
        # each share's log at t >= 1, from index j
        j = min(max(1 - start, 0), len(t))
        logs = {delta: np.fromiter(map(math.log, _PI * _PI * t[j:] * t[j:] / (3.0 * delta)),
                                   float, len(t) - j)
                if uniform else math.log(2.0 / delta) for delta in shares}
        out = []
        with np.errstate(over="ignore", invalid="ignore"):
            for delta, n, sq in widths:
                eps = np.full(len(t), np.nan)
                i = min(max(n - start, 0), len(t))
                tn = t[i:]
                eps[i:] = 0.0 if sq is None else np.sqrt(
                    (logs[delta][i - j:] if uniform else logs[delta])
                    * (tn * (n * n) * sq * 9.0 * tau_mix / (2.0 * (tn - (n - 1)) ** 2)))
                out.append(eps)
        return out

    return block


def _pomc_at(delta: float, t: int, n: int, a: float, b: float, tau_mix: float,
             uniform: bool) -> float:
    if t < n:
        raise ConfigError(f"need t >= n >= 1, got t={t}, n={n}")
    return float(pomc_halfwidth_blocks([(delta, n, a, b)], tau_mix, uniform)(t, t + 1)[0][0])


def ci_pomc_pointwise(delta: float, t: int, n: int, a: float, b: float,
                      tau_mix: float) -> float:
    """Half-width for the windowed estimator of an arity-n atom at time t.

    sqrt( ln(2/delta) * t * n^2 * (b-a)^2 * 9 * tau_mix / (2 (t-(n-1))^2) )
    """
    return _pomc_at(delta, t, n, a, b, tau_mix, False)


def ci_pomc_uniform(delta: float, t: int, n: int, a: float, b: float,
                    tau_mix: float) -> float:
    """Time-uniform variant of :func:`ci_pomc_pointwise`.

    Same kernel with ln(pi^2 t^2 / (3 delta)); valid simultaneously for all
    t by a union bound with the summable schedule delta_t = 6 delta/(pi t)^2.
    """
    return _pomc_at(delta, t, n, a, b, tau_mix, True)


def mc_halfwidth(delta: float, sigma_sq: float, uniform: bool) -> Callable[[int], float]:
    """The half-width of t bounded i.i.d. outcomes as a function of t >= 1.

    δ and σ² are checked here, once; the returned function only computes.
    Every ``ci_mc_*`` value comes from it, so the arithmetic is the same
    wherever a half-width is needed.
    """
    check_delta(delta)
    _check_sigma_sq(sigma_sq)
    log, sqrt = math.log, math.sqrt
    log_term, sqrt6 = log(2.0 / delta), sqrt(6.0)

    def pointwise(t: int) -> float:
        return sqrt(sigma_sq / (2.0 * t) * log_term)

    def stitched(t: int) -> float:
        s = max(1.0, sigma_sq * t)
        inner = max(1.0, log(s))
        width = sqrt(1.064 * s * (2.0 * log(_PI * inner / sqrt6) + log_term)) / t
        return max(width, pointwise(t))

    return stitched if uniform else pointwise


def ci_mc_pointwise(t: int, delta: float, sigma_sq: float) -> float:
    """Hoeffding half-width sqrt(sigma^2/(2t) * ln(2/delta)) for t outcomes."""
    halfwidth = mc_halfwidth(delta, sigma_sq, False)
    if t < 1:
        raise ConfigError(f"need t >= 1, got {t}")
    return halfwidth(t)


def ci_mc_uniform(t: int, delta: float, sigma_sq: float) -> float:
    """Stitched time-uniform half-width for t bounded i.i.d. outcomes.

    (1/t) * sqrt( 1.064 * max(1, sigma^2 t)
                  * (2 ln(pi * L / sqrt(6)) + ln(2/delta)) ),
    L = max(1, ln(max(1, sigma^2 t))).

    The inner logarithm is clamped to >= 1 so the width is defined at small
    sigma^2 t (the raw display takes ln of a quantity that vanishes there),
    and the result is clipped from below by the pointwise width; both
    adjustments only widen the interval, so the guarantee is preserved.
    """
    halfwidth = mc_halfwidth(delta, sigma_sq, True)
    if t < 1:
        raise ConfigError(f"need t >= 1, got {t}")
    return halfwidth(t)


def naive_uniform_lift(delta: float, t: int, scaling: str,
                       sigma_sq: float = 1.0) -> float:
    """Union-bound lift of the pointwise width to a time-uniform one.

    Spends delta_t = delta * 6/(pi^2 t^2) (polynomial) or delta / 2^t
    (exponential) at time t; both schedules sum to at most delta.
    """
    check_delta(delta)
    _check_sigma_sq(sigma_sq)
    if t < 1:
        raise ConfigError(f"need t >= 1, got {t}")
    if scaling == "polynomial":
        delta_t = delta * 6.0 / (_PI * _PI * t * t)
    elif scaling == "exponential":
        # work in log space: ln(2/delta_t) = ln(2/delta) + t ln 2
        log_term = math.log(2.0 / delta) + t * math.log(2.0)
        return math.sqrt(sigma_sq / (2.0 * t) * log_term)
    else:
        raise ConfigError(f"unknown scaling {scaling!r}")
    return ci_mc_pointwise(t, delta_t, sigma_sq)


@dataclass(frozen=True)
class DeltaBudget:
    """Confidence budget split across the atomic estimators of an expression."""

    total: float
    allocation: Tuple[float, ...]  # one share per atomic leaf, in leaves() order

    def shares(self) -> List[float]:
        return list(self.allocation)


def split_delta(total: float, expr: Expr) -> DeltaBudget:
    """Equal confidence share per atomic leaf.

    The compositional monitor is (1 - sum of shares)-correct by the union
    bound, so the shares must add up to the total.
    """
    check_delta(total)
    k = count_atoms(expr)
    if not k:
        raise ConfigError("expression has no atomic leaves; no budget needed")
    return DeltaBudget(total=total, allocation=(total / k,) * k)


def baseline_union_interval(variable_cis: Sequence[Interval], structure: Expr) -> Interval:
    """Fold per-variable confidence intervals through the expression.

    This is the union-bound baseline: each atomic leaf consumes one interval
    (in left-to-right order) and the tree combines them with interval
    arithmetic.
    """
    cis = list(variable_cis)
    k = count_atoms(structure)
    if k != len(cis):
        raise ConfigError(f"{len(cis)} intervals for {k} atomic leaves")
    consume = iter(cis)

    def leaf(_) -> Interval:
        return next(consume)

    return fold(structure, {
        **ARITHMETIC, Atom: leaf, SeqProb: leaf, TransVar: leaf,
        Const: lambda n: Interval.point(n.value),
        Inv: lambda _, c: Interval.point(1.0) / c,
    })
