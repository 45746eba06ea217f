"""Laurent series arithmetic: exactness, order tracking, sqrt, division."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightpaths.laurent import LaurentSeries

small_series = st.builds(
    lambda val, coeffs, pad: LaurentSeries(val, coeffs, val + len(coeffs) + pad),
    st.integers(-4, 4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
    st.integers(0, 3),
)

rational_series = st.builds(
    lambda val, coeffs, pad: LaurentSeries(val, coeffs, val + len(coeffs) + pad),
    st.integers(-4, 4),
    st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=12),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 3),
)
rational_settings = settings(deadline=None, derandomize=True, max_examples=150)


def poly(d):
    return LaurentSeries.from_poly(d)


def fields(s):
    return s.valuation, s.nums, s.den, s.order


def test_construction_normalises():
    s = LaurentSeries(0, [0, 0, 1, 2], 8)
    assert s.valuation == 2
    assert s.coeffs == [1, 2]
    assert s.coefficient(5) == 0
    with pytest.raises(ValueError):
        s.coefficient(8)


def test_exact_polynomials_have_no_order():
    p = poly({-2: 3, 1: 5})
    assert p.order is None
    assert p.coefficient(10 ** 6) == 0
    assert p.valuation == -2


def test_add_mul_orders():
    a = LaurentSeries(0, [1, 1, 1], 3)
    b = LaurentSeries(-2, [2, 0, 1], 1)
    assert (a + b).order == 1
    assert (a * b).order == 1  # error(a) * lead(b) at 3 + (-2)
    assert (a * poly({5: 1})).order == 8


def test_mul_matches_convolution():
    a = poly({0: 1, 1: 2, 2: 3})
    b = poly({0: 4, 1: 5})
    c = a * b
    assert [c.coefficient(i) for i in range(4)] == [4, 13, 22, 15]


def test_inverse_and_divide():
    geom = poly({0: 1, 1: -1}).inverse(order=10)
    assert [geom.coefficient(i) for i in range(10)] == [1] * 10
    with pytest.raises(ValueError):
        poly({0: 1, 1: -1}).inverse()  # exact polynomial needs an order
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(5).inverse()
    shifted = poly({3: 2, 4: 2}).inverse(order=6)
    assert shifted.valuation == -3
    assert shifted.coefficient(-3) == Fraction(1, 2)


def test_sqrt_constant():
    assert poly({0: 1}).sqrt(order=10).coefficient(0) == 1


def test_sqrt_self_consistency_zigzag_discriminant():
    disc = poly({0: 1, 2: -2, 4: -1, 6: -2, 8: 1})
    root = disc.sqrt(order=60)
    back = root * root
    assert back.order >= 60
    for i in range(60):
        assert back.coefficient(i) == disc.coefficient(i), i


def test_sqrt_leading_and_valuation():
    # w^8 + 8 w^4 + 4 w^2 has valuation 2, leading coefficient 4
    s = poly({8: 1, 4: 8, 2: 4}).sqrt(order=40)
    assert s.valuation == 1
    assert s.coefficient(1) == 2
    back = s * s
    for i in range(30):
        assert back.coefficient(i) == poly({8: 1, 4: 8, 2: 4}).coefficient(i)


def test_sqrt_rejects_bad_inputs():
    with pytest.raises(ValueError):
        poly({1: 1}).sqrt(order=10)  # odd valuation
    with pytest.raises(ValueError):
        poly({0: 2}).sqrt(order=10)  # 2 is not a rational square
    with pytest.raises(ValueError):
        poly({0: -1}).sqrt(order=10)
    assert poly({0: Fraction(1, 4)}).sqrt(order=5).coefficient(0) == Fraction(1, 2)


def test_pow_negative():
    s = LaurentSeries(0, [1, 1], 12)
    assert (s ** -2).coefficient(0) == 1
    assert (s ** -2).coefficient(1) == -2
    assert (s ** 0).coefficient(0) == 1


def test_sum_with_an_order_below_every_term_is_zero_to_that_order():
    zero5 = fields(LaurentSeries.zero(5))
    assert fields(LaurentSeries(10, [1], None) + LaurentSeries.zero(5)) == zero5
    assert fields(LaurentSeries.zero(5) + LaurentSeries(10, [1], None)) == zero5
    high = LaurentSeries(7, [Fraction(1, 3), 2], 20) - LaurentSeries(9, [4], 12)
    assert fields(high + LaurentSeries.zero(6)) == fields(LaurentSeries.zero(6))
    assert (LaurentSeries(3, [1], None) + LaurentSeries.zero(5)).coeffs == [1]


@given(small_series, small_series)
def test_product_division_round_trip(a, b):
    if b.is_zero():
        return
    q = (a * b).divide(b)
    upto = q.order if q.order is not None else a.valuation + 8
    for i in range(min(a.valuation, upto), upto):
        assert q.coefficient(i) == a.coefficient(i)


@given(small_series)
def test_square_then_sqrt(a):
    sq = a * a
    if sq.is_zero() or sq.coeffs[0] < 0:
        return
    lead = sq.coeffs[0]
    if math.isqrt(lead.numerator) ** 2 != lead.numerator:
        return
    if math.isqrt(lead.denominator) ** 2 != lead.denominator:
        return
    root = sq.sqrt()
    # sqrt is determined up to sign; compare squares
    back = root * root
    for i in range(back.valuation, back.order):
        assert back.coefficient(i) == sq.coefficient(i)


def test_truncation_consistency():
    disc = poly({0: 1, 2: -2, 4: -1, 6: -2, 8: 1})
    a = disc.sqrt(order=30)
    b = disc.sqrt(order=60)
    for i in range(30):
        assert a.coefficient(i) == b.coefficient(i)


def test_rational_coefficients_share_one_denominator():
    s = LaurentSeries(0, [Fraction(2, 4), Fraction(3, 6), Fraction(1, 3)], None)
    assert (s.nums, s.den) == ([3, 3, 2], 6)
    assert s.coeffs == [Fraction(1, 2), Fraction(1, 2), Fraction(1, 3)]
    assert s.coefficient(2) == Fraction(1, 3)
    assert (s * 6).den == 1 and (s * 6).coeffs == [3, 3, 2]


def _naive_product(a, b):
    out = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            e = a.valuation + b.valuation + i + j
            out[e] = out.get(e, Fraction(0)) + Fraction(x) * Fraction(y)
    return out


@rational_settings
@given(rational_series, rational_series)
def test_rational_mul_matches_naive_convolution(a, b):
    if a.is_zero() or b.is_zero():
        return
    c = a * b
    assert c.order == min(a.order + b.valuation, b.order + a.valuation)
    want = _naive_product(a, b)
    for e in range(a.valuation + b.valuation, c.order):
        assert c.coefficient(e) == want.get(e, 0), e


@rational_settings
@given(rational_series, rational_series)
def test_rational_product_division_round_trip(a, b):
    if b.is_zero():
        return
    q = (a * b).divide(b)
    for i in range(min(a.valuation, q.order), q.order):
        assert q.coefficient(i) == a.coefficient(i)


@rational_settings
@given(rational_series)
def test_rational_inverse_times_self_is_one(a):
    if a.is_zero():
        return
    one = a.inverse() * a
    assert one.order == a.order - a.valuation
    for e in range(min(one.valuation, 0), one.order):
        assert one.coefficient(e) == (1 if e == 0 else 0), e


@rational_settings
@given(rational_series)
def test_rational_sqrt_of_square(a):
    if a.is_zero():
        return
    root = (a * a).sqrt()  # the lead of a*a is the square of a rational
    sign = 1 if a.coefficient(a.valuation) > 0 else -1
    assert (root.valuation, root.order) == (a.valuation, a.order)
    for e in range(a.valuation, a.order):
        assert root.coefficient(e) == sign * a.coefficient(e), e


@rational_settings
@given(rational_series)
def test_rational_canonical_form(a):
    assert a.den > 0
    assert math.gcd(a.den, *a.nums) == 1
    rebuilt = LaurentSeries(a.valuation, a.coeffs, a.order)
    halves = (a + a) * Fraction(1, 2)
    assert fields(rebuilt) == fields(a) == fields(halves)


@pytest.mark.parametrize("pad", [0, 7, 1000])
def test_long_rational_mul_matches_naive_convolution(pad):
    # long factors, with the product truncated (pad 0, 7) and whole (pad 1000)
    a = LaurentSeries(-3, [Fraction((7 * i) % 11 - 5, 1 + i % 6) for i in range(45)], 42 + pad)
    b = LaurentSeries(2, [Fraction((5 * i) % 13 - 6, 1 + i % 4) for i in range(38)], 40 + pad)
    c = a * b
    want = _naive_product(a, b)
    for e in range(-1, c.order if c.order < 200 else 81):
        assert c.coefficient(e) == want.get(e, 0), e
