"""Full-scale empirical soundness checks for both monitor families.

These are the statistically heavy module invariants (minutes of simulated
events); the acceptance criteria cover the remaining scenarios.
"""

import pytest

from fairmon.markov import simulate_states
from fairmon.mc import build_mc_monitor
from fairmon.speclang import parse
from fairmon.experiments import hypercube_pomc, lending_mc, run_coverage
from test_mc_monitor import Checked


def test_pomc_checkpoint_coverage_hypercube():
    # 100 seeded runs, delta=0.05: at each checkpoint the truth sits inside
    # the pointwise verdict in at least 93 runs
    model = hypercube_pomc(3)
    expr = parse("P[a a] - P[b b]", ["a", "b"], allow_transvars=False)
    rep = run_coverage(model, expr, "pomc", runs=100, horizon=100_000,
                       delta=0.05, seed=1234, checkpoints=[10**3, 10**4, 10**5])
    for row in rep.rows:
        assert row["covered"] >= 93, row


def test_mc_coverage_lending_demographic_parity():
    # 100 runs over 1e5 events each: final pointwise verdict and the whole
    # uniform verdict sequence trap the construction-time truth
    model = lending_mc(p_grant_g=0.8, p_grant_gbar=0.6)
    expr = parse("T[g->gy] - T[gbar->gbary]", model.states)
    rep = run_coverage(model, expr, "mc", runs=100, horizon=100_000,
                       delta=0.05, seed=4321)
    assert rep.truth == pytest.approx(0.2)
    assert rep.coverage["pointwise_final"] >= 93
    assert rep.coverage["uniform_all"] >= 93


def test_mc_outcomes_stay_in_computed_range():
    model = lending_mc()
    expr = parse("T[g->gy] - 2 * T[gbar->gbary]", model.states)
    monitor = Checked(build_mc_monitor(expr, 0.05, "pointwise", seed=2))
    lo, hi = monitor.value_range.lo, monitor.value_range.hi
    assert (lo, hi) == (-2.0, 1.0)
    names = list(model.states)
    codes = simulate_states(model, 30_000, 1, seed=3)[0]
    prev_n, prev_total = 0, 0.0
    for c in codes:
        monitor.next(names[c])
        n = monitor.n_samples
        if n > prev_n:
            outcome = monitor.mean * n - prev_total
            prev_n, prev_total = n, monitor.mean * n
            assert lo - 1e-9 <= outcome <= hi + 1e-9
    assert monitor.n_samples > 1000
