"""Laurent series arithmetic: exactness, order tracking, division."""

from __future__ import annotations

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

# the divisors: a lead of +1 or -1 keeps every inverse integral
unit_series = st.builds(
    lambda val, lead, rest, pad: LaurentSeries(val, [lead, *rest], val + 1 + len(rest) + pad),
    st.integers(-4, 4),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-9, 9), max_size=7),
    st.integers(0, 3),
)
exact_series = st.builds(
    lambda val, coeffs: LaurentSeries(val, coeffs, None),
    st.integers(-4, 4),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
)
exact_unit_series = st.builds(
    lambda val, lead, rest: LaurentSeries(val, [lead, *rest], None),
    st.integers(-4, 4),
    st.sampled_from([1, -1]),
    st.lists(st.integers(-9, 9), max_size=7),
)
# zero (exact or to an order), exact and truncated numerators
numerators = st.one_of(
    st.just(LaurentSeries(0, [], None)),
    st.integers(-4, 9).map(LaurentSeries.zero),
    exact_series,
    small_series,
)
derandomized = settings(deadline=None, derandomize=True, max_examples=150)


def poly(d):
    return LaurentSeries.from_poly(d)


def inverse(s, order=None):
    return poly({0: 1}).divide(s, order)


def fields(s):
    return s.valuation, s.coeffs, s.order


def test_construction_normalises():
    s = LaurentSeries(0, [0, 0, 1, 2], 8)
    assert s.valuation == 2
    assert s.coeffs == [1, 2]
    assert s.coefficient(5) == 0
    with pytest.raises(ValueError):
        s.coefficient(8)
    with pytest.raises(TypeError):
        LaurentSeries(0, [1, Fraction(1, 2)], 8)  # integer windows only


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
    geom = inverse(poly({0: 1, 1: -1}), order=10)
    assert [geom.coefficient(i) for i in range(10)] == [1] * 10
    with pytest.raises(ValueError):
        inverse(poly({0: 1, 1: -1}))  # exact polynomial needs an order
    with pytest.raises(ZeroDivisionError):
        inverse(LaurentSeries.zero(5))
    shifted = inverse(poly({3: -1, 4: 2}), order=6)
    assert shifted.valuation == -3
    assert [shifted.coefficient(e) for e in range(-3, 3)] == [-1, -2, -4, -8, -16, -32]


def test_an_inverse_whose_lead_is_not_a_unit_raises_at_its_first_coefficient():
    for lead in (2, -3):
        with pytest.raises(ArithmeticError, match=rf"x\*\*-3 is 1/{lead}, not an integer"):
            inverse(poly({3: lead, 4: 1}), order=6)
    with pytest.raises(ArithmeticError, match=r"x\*\*0 is 1/2"):
        poly({0: 2}).divide(poly({0: 2}), order=4)  # even where the quotient is integral


def test_sum_with_an_order_below_every_term_is_zero_to_that_order():
    zero5 = fields(LaurentSeries.zero(5))
    assert fields(LaurentSeries(10, [1], None) + LaurentSeries.zero(5)) == zero5
    assert fields(LaurentSeries.zero(5) + LaurentSeries(10, [1], None)) == zero5
    high = LaurentSeries(7, [3, 2], 20) - LaurentSeries(9, [4], 12)
    assert fields(high + LaurentSeries.zero(6)) == fields(LaurentSeries.zero(6))
    assert (LaurentSeries(3, [1], None) + LaurentSeries.zero(5)).coeffs == [1]


def test_truncation_below_the_valuation_is_zero_to_that_order():
    # a sum truncates at its lower order, a product at the order its error enters
    zero3 = fields(LaurentSeries.zero(3))
    assert fields(poly({5: 1}) + LaurentSeries.zero(3)) == zero3
    zero2 = fields(LaurentSeries.zero(2))
    assert fields(LaurentSeries(2, [1, 4], 9) + LaurentSeries.zero(2)) == zero2
    product = LaurentSeries.zero(5) * LaurentSeries(2, [1], 10)  # zero to z^7
    assert fields(product) == fields(LaurentSeries.zero(7))
    assert fields(product + LaurentSeries.zero(3)) == zero3


@derandomized
@given(small_series, unit_series)
def test_product_division_round_trip(a, b):
    q = (a * b).divide(b)
    upto = q.order if q.order is not None else a.valuation + 8
    for i in range(min(a.valuation, upto), upto):
        assert q.coefficient(i) == a.coefficient(i)


@derandomized
@given(
    numerators, st.one_of(unit_series, exact_unit_series), st.sampled_from([None, 1, 2, 3, 5, 9])
)
def test_long_division_equals_the_product_with_the_inverse(a, b, o):
    if b.order is None and o is None:  # both raise: an exact divisor needs an order
        for quotient in (lambda: a.divide(b, o), lambda: a * inverse(b, o)):
            with pytest.raises(ValueError, match="needs a truncation order"):
                quotient()
        return
    assert fields(a.divide(b, o)) == fields(a * inverse(b, o))


def test_divide_keeps_the_divisor_guards():
    a = LaurentSeries(1, [3, 1, 4], 9)
    for zero in (LaurentSeries.zero(5), LaurentSeries(0, [], None)):
        with pytest.raises(ZeroDivisionError, match="zero to its order"):
            a.divide(zero, order=4)
    with pytest.raises(ValueError, match="exact polynomial needs a truncation order"):
        a.divide(poly({0: 1, 1: -1}))
    with pytest.raises(ArithmeticError, match=r"x\*\*-2 is 1/3, not an integer"):
        a.divide(poly({2: 3, 3: 1}), order=4)
    with pytest.raises(ArithmeticError, match=r"x\*\*-2 is 1/3"):  # the lead is checked first
        LaurentSeries.zero(7).divide(LaurentSeries(2, [3, 1], 6))
    for divisor in (poly({0: 1, 1: -1}), LaurentSeries(0, [1, 2], 6)):
        with pytest.raises(ValueError, match="relative order of at least 1"):
            a.divide(divisor, order=0)


def _naive_product(a, b):
    out = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            e = a.valuation + b.valuation + i + j
            out[e] = out.get(e, 0) + x * y
    return out


@derandomized
@given(small_series, small_series)
def test_mul_matches_naive_convolution(a, b):
    if a.is_zero() or b.is_zero():
        return
    c = a * b
    assert c.order == min(a.order + b.valuation, b.order + a.valuation)
    want = _naive_product(a, b)
    for e in range(a.valuation + b.valuation, c.order):
        assert c.coefficient(e) == want.get(e, 0), e


@derandomized
@given(unit_series)
def test_unit_inverse_times_self_is_one(a):
    one = inverse(a) * a
    assert one.order == a.order - a.valuation
    for e in range(min(one.valuation, 0), one.order):
        assert one.coefficient(e) == (1 if e == 0 else 0), e


@derandomized
@given(small_series)
def test_canonical_form(a):
    padded = LaurentSeries(a.valuation - 2, [0, 0, *a.coeffs], a.order)
    assert fields(padded) == fields(a) == fields((a + a) - a)


@pytest.mark.parametrize("pad", [0, 7, 1000])
def test_long_mul_matches_naive_convolution(pad):
    # long factors, with the product truncated (pad 0, 7) and whole (pad 1000)
    a = LaurentSeries(-3, [((7 * i) % 11 - 5) * (1 + i % 6) for i in range(45)], 42 + pad)
    b = LaurentSeries(2, [((5 * i) % 13 - 6) * (1 + i % 4) for i in range(38)], 40 + pad)
    c = a * b
    want = _naive_product(a, b)
    for e in range(-1, c.order if c.order < 200 else 81):
        assert c.coefficient(e) == want.get(e, 0), e
