"""Exact series and polynomial arithmetic."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motzkin_parity import (
    MODEL_A,
    DivisorNotUnit,
    IndexBeyondOrder,
    NotUnitSquare,
    OrderTooSmall,
    Poly,
    Series,
    level_series,
    poly_div_exact,
    poly_gcd,
)

rats = st.fractions(min_value=-10, max_value=10, max_denominator=8)


def embedded(coeffs, order):
    return Series.from_poly(Poly(coeffs), order)


class TestAddSub:
    def test_cancellation(self):
        total = embedded([1, 1], 3) + embedded([1, -1], 3)
        assert total == embedded([2], 3)

    def test_additive_identity(self):
        s = embedded([3, Fraction(1, 2), -4], 5)
        assert s + Series.zero(5) == s

    def test_self_difference(self):
        s = embedded([1, 0, 2], 3)
        assert (s - s) == Series.zero(3)

    def test_order_is_min(self):
        assert (embedded([1], 7) + embedded([1], 3)).order == 3


class TestMul:
    def test_geometric_inverse(self):
        geo = Series([1] * 10)
        assert embedded([1, -1], 10) * geo == Series.one(10)

    def test_kernel_factor_product(self):
        left = embedded([1, -3, 2], 6)
        right = embedded([1, -3, -2], 6)
        assert left * right == embedded([1, -6, 9, 0, -4], 6)

    def test_truncation_swallows_product(self):
        z = embedded([0, 1], 2)
        assert z * z == Series.zero(2)

    def test_scalar(self):
        s = embedded([1, 2, 3], 3)
        assert s * Fraction(1, 2) == Series([Fraction(1, 2), 1, Fraction(3, 2)])


class TestDiv:
    def test_geometric(self):
        assert Series.one(5) / embedded([1, -1], 5) == Series([1] * 5)

    def test_matches_returning_path_counts(self):
        # (1-2z)/(root+z^2) reproduces the exact count of paths returning
        # to height 0 in model A; root + z^2 = 1 - 3z + z^2 mod z^4
        quotient = embedded([1, -2], 4) / embedded([1, -3, 1, 0], 4)
        assert quotient == level_series(MODEL_A, 0, 4)
        assert quotient == embedded([1, 1, 2, 5], 4)

    def test_nonunit_divisor_rejected(self):
        with pytest.raises(DivisorNotUnit):
            Series.one(3) / embedded([0, 1], 3)

    def test_results_are_reduced(self):
        q = embedded([3, 5, 7], 6) / embedded([6, 1, Fraction(2, 3)], 6)
        for c in q.coeffs:
            assert c.denominator >= 1
            assert gcd(abs(c.numerator), c.denominator) == 1


class TestSqrt:
    def test_perfect_square(self):
        assert embedded([1, -2, 1], 6).sqrt() == embedded([1, -1], 6)

    def test_kernel_discriminant(self):
        radicand = embedded([1, -6, 9, 0, -4], 7)
        root = radicand.sqrt()
        assert root == Series([1, -3, 0, 0, -2, -6, -18])
        assert root * root == radicand

    def test_involution(self):
        s = embedded([1, 1], 20)
        assert s.sqrt() * s.sqrt() == s

    def test_nonunit_constant_rejected(self):
        with pytest.raises(NotUnitSquare):
            embedded([4], 3).sqrt()


class TestDerivative:
    def test_basic(self):
        assert embedded([1, 1, 1], 3).derivative() == Series([1, 2])

    def test_constant(self):
        assert embedded([5], 4).derivative() == Series.zero(3)

    def test_order_too_small(self):
        with pytest.raises(OrderTooSmall):
            Series([1]).derivative()

    def test_returning_series_derivative(self):
        counts = level_series(MODEL_A, 0, 9)
        expected = [(n + 1) * counts.coeffs[n + 1] for n in range(8)]
        assert expected == [1, 4, 15, 56, 205, 738, 2625, 9264]
        assert list(counts.derivative().coeffs) == expected


class TestEmbedAndExtract:
    def test_poly_embedding(self):
        assert embedded([-1, 2], 4) == Series([-1, 2, 0, 0])

    def test_coefficient_of_returning_series(self):
        assert level_series(MODEL_A, 0, 10).coeff(9) == 3615

    def test_coefficient_beyond_order(self):
        with pytest.raises(IndexBeyondOrder):
            Series([1, 2]).coeff(2)

    def test_truncation_orders(self):
        a, b = embedded([1, 2, 3], 8), embedded([4, 5], 5)
        assert (a + b).order == 5
        assert (a * b).order == 5
        assert (a / Series.one(6)).order == 6
        assert a.derivative().order == 7


class TestPolyHelpers:
    def test_gcd(self):
        a = Poly([-1, 1]) * Poly([2, 1])
        b = Poly([-1, 1]) * Poly([3, 0, 1])
        assert poly_gcd(a, b) == Poly([-1, 1])

    def test_div_exact(self):
        product = Poly([1, 2]) * Poly([-3, 1, 4])
        assert poly_div_exact(product, Poly([1, 2])) == Poly([-3, 1, 4])
        with pytest.raises(ValueError):
            poly_div_exact(Poly([1, 1]), Poly([0, 1]))

    def test_shift_arg(self):
        p = Poly([1, -3, 2])
        shifted = p.shift_arg(5)
        assert shifted(0) == p(5)
        assert shifted(-5) == p(0)

    def test_call_and_derivative(self):
        p = Poly([2, 0, 1])
        assert p(3) == 11
        assert p.derivative() == Poly([0, 2])


@st.composite
def same_order_triples(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    make = st.lists(rats, min_size=n, max_size=n).map(Series)
    return draw(make), draw(make), draw(make)


class TestProperties:
    @settings(deadline=None)
    @given(same_order_triples())
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(deadline=None)
    @given(
        st.lists(rats, min_size=1, max_size=10).map(Series),
        rats.filter(lambda r: r != 0),
        st.lists(rats, max_size=9),
    )
    def test_div_mul_roundtrip(self, a, unit, tail):
        b = Series([unit, *tail][: a.order])
        assert (a / b) * b == a.truncate(min(a.order, b.order))

    @settings(deadline=None)
    @given(st.lists(rats, max_size=11))
    def test_sqrt_roundtrip(self, tail):
        s = Series([1, *tail])
        assert s.sqrt() * s.sqrt() == s
