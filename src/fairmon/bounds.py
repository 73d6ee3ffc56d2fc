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

import functools
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


def pomc_log_source(delta: float, uniform: bool, key: str) -> Tuple[str, dict]:
    """The log term of the pomc half-widths at share ``delta``, ln(pi^2 t^2 /
    (3 delta)) uniform or ln(2/delta) pointwise, as Python source over ``t``
    and the names bound in the returned dict, which end in ``key``.

    Each form is written once, here, for :func:`pomc_halfwidth`, for
    :func:`pomc_halfwidth_table` and for the generated step of
    :mod:`fairmon.pomc`, which computes each share's log term once per event.
    """
    check_delta(delta)
    if uniform:
        d3 = f"d3{key}"
        return f"log(pi2 * t * t / {d3})", {"log": math.log, "pi2": _PI * _PI, d3: 3.0 * delta}
    name = f"log_term{key}"
    return name, {name: math.log(2.0 / delta)}


def pomc_halfwidth_source(n: int, a: float, b: float, tau_mix: float,
                          log_term: str, key: str) -> Tuple[str, dict]:
    """The half-width of an arity-n atom with range [a, b] at time t >= n, as
    Python source over ``t``, the log term's source ``log_term`` (see
    :func:`pomc_log_source`, which checks delta) and the names bound in the
    returned dict, which end in ``key``.  The arguments are checked here, once.

    sqrt( log_term * t * n^2 * (b-a)^2 * 9 * tau_mix / (2 (t-(n-1))^2) )
    """
    if n < 1:
        raise ConfigError(f"need t >= n >= 1, got n={n}")
    if not b >= a:
        raise ConfigError(f"invalid atom range [{a}, {b}]")
    if not tau_mix >= 1.0:
        raise ConfigError(f"mixing-time bound must be >= 1, got {tau_mix}")
    if b == a:
        return "0.0", {}
    sq, tau = f"sq{key}", f"tau_mix{key}"
    # t * {n * n} equals t * n * n, an exact integer, so every float operation
    # rounds as in the one-line formula
    return (f"sqrt({log_term} * (t * {n * n} * {sq} * 9.0 * {tau} / (2.0 * (t - {n - 1}) ** 2)))",
            {"sqrt": math.sqrt, sq: squared_width(a, b), tau: tau_mix})


@functools.lru_cache(maxsize=64)
def _compiled(source: str):
    """The code of ``source``; half-width sources differ only by arity and mode."""
    return compile(source, "<fairmon.bounds halfwidth>", "eval")


def pomc_halfwidth(delta: float, n: int, a: float, b: float, tau_mix: float,
                   uniform: bool) -> Callable[[int], float]:
    """The half-width of an arity-n atom with range [a, b] as a function of t >= n.

    The arguments are checked here, once; the returned function only
    computes.  Every ``ci_pomc_*`` value comes from it, and it runs the
    source that the generated ``pomc`` step inlines, so the arithmetic and
    its order are the same wherever a half-width is needed.
    """
    log_term, names = pomc_log_source(delta, uniform, "")
    width, more = pomc_halfwidth_source(n, a, b, tau_mix, log_term, "")
    return eval(_compiled(f"lambda t: {width}"), {**names, **more})


def _log_each(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each element: numpy's log may differ from libm's in the last bit."""
    return np.fromiter(map(math.log, x), float, len(x))


def pomc_halfwidth_table(delta: float, n: int, a: float, b: float, tau_mix: float,
                         uniform: bool, horizon: int) -> np.ndarray:
    """``eps[t]`` for t = 0..horizon, NaN below n, equal to
    ``pomc_halfwidth(delta, n, a, b, tau_mix, uniform)(t)`` bit for bit.

    It evaluates the same source over an int64 array of t, with ``np.sqrt``
    (correctly rounded, as ``math.sqrt`` is) and ``math.log`` per element.
    The source squares t - (n - 1) as an integer, so a horizon above about
    3e9 would overflow int64 and is rejected.
    """
    log_term, names = pomc_log_source(delta, uniform, "")
    width, more = pomc_halfwidth_source(n, a, b, tau_mix, log_term, "")
    if max(horizon * n * n, (horizon - n + 1) ** 2) >= 2 ** 63:
        raise ConfigError(f"horizon {horizon} is too long for a half-width table")
    eps = np.full(horizon + 1, np.nan)
    t = np.arange(n, horizon + 1, dtype=np.int64)
    eps[n:] = eval(_compiled(width), {**names, **more, "log": _log_each,
                                      "sqrt": np.sqrt, "t": t})
    return eps


def ci_pomc_pointwise(delta: float, t: int, n: int, a: float, b: float,
                      tau_mix: float) -> float:
    """Half-width for the windowed estimator of an arity-n atom at time t.

    sqrt( ln(2/delta) * t * n^2 * (b-a)^2 * 9 * tau_mix / (2 (t-(n-1))^2) )
    """
    if t < n:
        raise ConfigError(f"need t >= n >= 1, got t={t}, n={n}")
    return pomc_halfwidth(delta, n, a, b, tau_mix, False)(t)


def ci_pomc_uniform(delta: float, t: int, n: int, a: float, b: float,
                    tau_mix: float) -> float:
    """Time-uniform variant of :func:`ci_pomc_pointwise`.

    Same kernel with ln(pi^2 t^2 / (3 delta)); valid simultaneously for all
    t by a union bound with the summable schedule delta_t = 6 delta/(pi t)^2.
    """
    if t < n:
        raise ConfigError(f"need t >= n >= 1, got t={t}, n={n}")
    return pomc_halfwidth(delta, n, a, b, tau_mix, True)(t)


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
