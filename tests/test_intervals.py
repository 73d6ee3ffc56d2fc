import math
import operator
import random

import pytest

from fairmon.intervals import UNBOUNDED, Interval


def test_add():
    r = Interval(0.2, 0.4) + Interval(0.1, 0.3)
    assert r.lo == pytest.approx(0.3)
    assert r.hi == pytest.approx(0.7)


def test_mul_mixed_signs():
    # min/max over the four products: {-4, -3, 6, 8}
    assert Interval(-1, 2) * Interval(3, 4) == Interval(-4, 8)


def test_division_through_zero_is_unbounded():
    r = Interval.point(1.0) / Interval(-0.1, 0.2)
    assert r == UNBOUNDED


def test_division_positive():
    r = Interval(1.0, 2.0) / Interval(4.0, 5.0)
    assert r.lo == pytest.approx(0.2)
    assert r.hi == pytest.approx(0.5)


def test_inverse_negative_interval():
    r = Interval(-4.0, -2.0).inverse()
    assert r == Interval(-0.5, -0.25)


def test_zero_times_unbounded():
    assert Interval.point(0.0) * UNBOUNDED == Interval.point(0.0)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_intersect_disjoint_raises():
    with pytest.raises(ValueError):
        Interval(2.0, 3.0).intersect(Interval(0.0, 1.0))


def test_randomized_membership_soundness():
    # 1e5 random (lhs, rhs, x in lhs, y in rhs, op) checks never violate
    # x op y in (lhs op rhs)
    rng = random.Random(20240917)
    ops = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
    checked = 0
    while checked < 100_000:
        a = sorted(rng.uniform(-5, 5) for _ in range(2))
        b = sorted(rng.uniform(-5, 5) for _ in range(2))
        lhs = Interval(a[0], a[1])
        rhs = Interval(b[0], b[1])
        x = rng.uniform(a[0], a[1])
        y = rng.uniform(b[0], b[1])
        op = "+-*/"[checked % 4]
        if op == "/" and y == 0.0:
            continue
        res = ops[op](lhs, rhs)
        val = ops[op](x, y)
        slack = 1e-12 * max(1.0, abs(val))
        assert res.lo - slack <= val <= res.hi + slack, (lhs, rhs, op, x, y, val, res)
        checked += 1


def test_width_and_membership():
    iv = Interval(1.0, 3.0)
    assert iv.width == 2.0
    assert iv.contains(1.0) and iv.contains(3.0) and not iv.contains(3.5)
    assert not UNBOUNDED.is_bounded
    assert math.isinf(UNBOUNDED.lo)


class TestValueSemantics:
    def test_equal_values_are_equal_and_hash_equal(self):
        a, b = Interval(-0.0, 2.5), Interval(0.0, 2.5)
        assert a == b and hash(a) == hash(b)
        assert a != Interval(0.0, 3.0)
        assert a != (0.0, 2.5)
        assert Interval(-math.inf, math.inf) == UNBOUNDED
        assert {a, b, UNBOUNDED} == {b, UNBOUNDED}

    def test_repr(self):
        assert repr(Interval(-0.5, 1e16)) == "[-0.5, 1e+16]"
        assert repr(UNBOUNDED) == "[-inf, inf]"

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan),
                                       (-math.inf, math.nan)])
    def test_nan_endpoint_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="NaN"):
            Interval(lo, hi)

    @pytest.mark.parametrize("lo,hi", [(1.0, 0.0), (math.inf, -math.inf), (5e-324, 0.0)])
    def test_empty_interval_rejected_with_its_endpoints(self, lo, hi):
        with pytest.raises(ValueError, match="empty interval"):
            Interval(lo, hi)
