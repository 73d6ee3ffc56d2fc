"""Built-in observation models used by the experiments and tests."""

from __future__ import annotations

from itertools import product
from typing import Dict, Optional, Sequence

import numpy as np

from ..errors import ModelError
from ..markov import ObservationModel


def hypercube_pomc(n: int = 3) -> ObservationModel:
    """Lazy random walk on the n-cube; first coordinate decides the label.

    Stay put with probability 1/2, otherwise flip one of the n coordinates
    uniformly.  Doubly stochastic, so the stationary distribution is uniform
    and the labeling is a/b-symmetric.
    """
    if n < 1:
        raise ModelError("hypercube dimension must be positive")
    states = ["".join(bits) for bits in product("01", repeat=n)]
    k = len(states)
    m = np.zeros((k, k))
    index = {s: i for i, s in enumerate(states)}
    for s in states:
        i = index[s]
        m[i, i] = 0.5
        for d in range(n):
            flipped = s[:d] + ("1" if s[d] == "0" else "0") + s[d + 1:]
            m[i, index[flipped]] = 1.0 / (2 * n)
    labels = {s: ("a" if s[0] == "0" else "b") for s in states}
    initial = np.full(k, 1.0 / k)
    return ObservationModel(states=tuple(states), transitions=m,
                            initial=initial, labels=labels)


def lending_mc(p_group: float = 0.5, p_grant_g: float = 0.8,
               p_grant_gbar: float = 0.6, p_repay_g: float = 0.9,
               p_repay_gbar: float = 0.7) -> ObservationModel:
    """Fully observed loan cycle: sample a group, decide, observe repayment.

    States: init -> g | gbar -> (gy | gbary | ybar); granted loans move to
    z or zbar; everything returns to init.  Demographic parity as a PSE is
    ``T[g->gy] - T[gbar->gbary]`` with true value p_grant_g - p_grant_gbar.
    """
    for name, p in [("p_group", p_group), ("p_grant_g", p_grant_g),
                    ("p_grant_gbar", p_grant_gbar), ("p_repay_g", p_repay_g),
                    ("p_repay_gbar", p_repay_gbar)]:
        if not 0.0 < p < 1.0:
            raise ModelError(f"{name} must be strictly inside (0,1), got {p}")
    states = ("init", "g", "gbar", "gy", "gbary", "ybar", "z", "zbar")
    idx = {s: i for i, s in enumerate(states)}
    m = np.zeros((8, 8))
    m[idx["init"], idx["g"]] = p_group
    m[idx["init"], idx["gbar"]] = 1.0 - p_group
    m[idx["g"], idx["gy"]] = p_grant_g
    m[idx["g"], idx["ybar"]] = 1.0 - p_grant_g
    m[idx["gbar"], idx["gbary"]] = p_grant_gbar
    m[idx["gbar"], idx["ybar"]] = 1.0 - p_grant_gbar
    m[idx["gy"], idx["z"]] = p_repay_g
    m[idx["gy"], idx["zbar"]] = 1.0 - p_repay_g
    m[idx["gbary"], idx["z"]] = p_repay_gbar
    m[idx["gbary"], idx["zbar"]] = 1.0 - p_repay_gbar
    m[idx["ybar"], idx["init"]] = 1.0
    m[idx["z"], idx["init"]] = 1.0
    m[idx["zbar"], idx["init"]] = 1.0
    initial = np.zeros(8)
    initial[idx["init"]] = 1.0
    labels = {s: s for s in states}
    return ObservationModel(states=states, transitions=m, initial=initial, labels=labels)


def lending_pomc(p_group: float = 0.5,
                 credit_g: Sequence[float] = (0.6, 0.4),
                 credit_gbar: Sequence[float] = (0.5, 0.5),
                 grant_g: Sequence[float] = (0.3, 0.8),
                 grant_gbar: Sequence[float] = (0.25, 0.7),
                 start_self_loop: float = 0.05) -> ObservationModel:
    """Partially observed lending chain with hidden credit scores.

    The applicant's group is observable (a/b), the credit level is not; the
    decision states are labeled y/n and the scheduler state s.  A small
    self-loop on the scheduler keeps the chain aperiodic.  The monitored
    conditional ``P[y | a] - P[y | b]`` has true value
    ``sum_c credit_g[c] grant_g[c] - sum_c credit_gbar[c] grant_gbar[c]``.
    """
    credit_g = np.asarray(credit_g, dtype=float)
    credit_gbar = np.asarray(credit_gbar, dtype=float)
    if len(credit_g) != len(credit_gbar) or len(credit_g) != len(grant_g) \
            or len(grant_g) != len(grant_gbar):
        raise ModelError("credit and grant vectors must have matching lengths")
    if abs(credit_g.sum() - 1.0) > 1e-9 or abs(credit_gbar.sum() - 1.0) > 1e-9:
        raise ModelError("credit-score distributions must sum to 1")
    if not 0.0 < start_self_loop < 1.0:
        raise ModelError("self-loop mass must be in (0,1)")
    levels = len(credit_g)
    states = ["S"] + [f"A{c+1}" for c in range(levels)] \
                   + [f"B{c+1}" for c in range(levels)] + ["Y", "N"]
    idx = {s: i for i, s in enumerate(states)}
    k = len(states)
    m = np.zeros((k, k))
    stay = start_self_loop
    m[idx["S"], idx["S"]] = stay
    for c in range(levels):
        m[idx["S"], idx[f"A{c+1}"]] = (1.0 - stay) * p_group * credit_g[c]
        m[idx["S"], idx[f"B{c+1}"]] = (1.0 - stay) * (1.0 - p_group) * credit_gbar[c]
        m[idx[f"A{c+1}"], idx["Y"]] = grant_g[c]
        m[idx[f"A{c+1}"], idx["N"]] = 1.0 - grant_g[c]
        m[idx[f"B{c+1}"], idx["Y"]] = grant_gbar[c]
        m[idx[f"B{c+1}"], idx["N"]] = 1.0 - grant_gbar[c]
    m[idx["Y"], idx["S"]] = 1.0
    m[idx["N"], idx["S"]] = 1.0
    initial = np.zeros(k)
    initial[idx["S"]] = 1.0
    labels = {"S": "s", "Y": "y", "N": "n"}
    for c in range(levels):
        labels[f"A{c+1}"] = "a"
        labels[f"B{c+1}"] = "b"
    return ObservationModel(states=tuple(states), transitions=m,
                            initial=initial, labels=labels)


def admission_mc(levels: int = 9, p_group: float = 0.5,
                 invest_g: Optional[Sequence[float]] = None,
                 invest_gbar: Optional[Sequence[float]] = None) -> ObservationModel:
    """Fully observed admission cycle with investment levels 0..levels.

    A sampled candidate reveals the group, then the invested amount; the
    social burden is the expected investment of the qualified group,
    ``sum_i i * T[g->i]``.
    """
    n = levels + 1
    if invest_g is None:
        weights = np.arange(1.0, n + 1.0)
        invest_g = weights / weights.sum()
    if invest_gbar is None:
        weights = np.arange(n, 0.0, -1.0)
        invest_gbar = weights / weights.sum()
    invest_g = np.asarray(invest_g, dtype=float)
    invest_gbar = np.asarray(invest_gbar, dtype=float)
    if invest_g.shape != (n,) or invest_gbar.shape != (n,):
        raise ModelError(f"investment distributions must have {n} entries")
    if abs(invest_g.sum() - 1.0) > 1e-9 or abs(invest_gbar.sum() - 1.0) > 1e-9:
        raise ModelError("investment distributions must sum to 1")
    states = ("init", "g", "gbar") + tuple(str(i) for i in range(n))
    idx = {s: i for i, s in enumerate(states)}
    k = len(states)
    m = np.zeros((k, k))
    m[idx["init"], idx["g"]] = p_group
    m[idx["init"], idx["gbar"]] = 1.0 - p_group
    for i in range(n):
        m[idx["g"], idx[str(i)]] = invest_g[i]
        m[idx["gbar"], idx[str(i)]] = invest_gbar[i]
        m[idx[str(i)], idx["init"]] = 1.0
    initial = np.zeros(k)
    initial[idx["init"]] = 1.0
    labels = {s: s for s in states}
    return ObservationModel(states=states, transitions=m, initial=initial, labels=labels)


def social_burden_text(levels: int = 9) -> str:
    """Property text ``0*T[g->0] + ... + levels*T[g->levels]``."""
    return " + ".join(f"{i} * T[g->{i}]" for i in range(levels + 1))


def two_state(p: float = 0.1, q: float = 0.2,
              labels: Optional[Dict[str, str]] = None) -> ObservationModel:
    """Two-state chain [[1-p, p], [q, 1-q]]; handy for closed-form checks."""
    m = np.array([[1.0 - p, p], [q, 1.0 - q]])
    states = ("s0", "s1")
    return ObservationModel(states=states, transitions=m,
                            initial=np.array([1.0, 0.0]),
                            labels=labels or {"s0": "s0", "s1": "s1"})

