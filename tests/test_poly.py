"""Integer polynomials and rational generating functions: exact, checked arithmetic."""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightpaths import poly
from knightpaths.poly import RationalGF

polys = st.lists(st.integers(-20, 20), max_size=8)


def _value(p, z):
    return sum(c * z**i for i, c in enumerate(p))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(polys, polys)
def test_ring_operations_agree_with_evaluation(p, q):
    p, q = poly.trim(p), poly.trim(q)
    for op, f in ((poly.add, int.__add__), (poly.sub, int.__sub__), (poly.mul, int.__mul__)):
        out = op(p, q)
        assert out == poly.trim(list(out)), op  # trimmed factors give a trimmed result
        for z in range(-6, 7):
            assert _value(out, z) == f(_value(p, z), _value(q, z)), (op, z)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(polys, polys, st.sampled_from([1, -1]))
def test_division_undoes_multiplication(p, q, unit):
    p, q = poly.trim(p), [unit] + q
    assert poly.divide(poly.mul(p, q), q, len(p)) == p


@settings(derandomize=True, deadline=None, max_examples=200)
@given(polys, polys, st.integers(0, 18))
def test_low_product_is_the_cut_full_product(p, q, n):
    """Zeros and untrimmed factors included: the first n coefficients of `mul`, zero-padded."""
    assert poly.mul_low(p, q, n) == (poly.mul(p, q) + [0] * n)[:n]


def test_division_names_the_first_coefficient_that_is_not_an_integer():
    assert poly.divide([1, 1], [1, -2, -2], 4) == [1, 3, 8, 22]
    # (2 + z^2) / (2 - 4z - 4z^2): z^0 and z^1 divide, z^2 leaves 13 / 2
    with pytest.raises(ArithmeticError, match=r"^coefficient 2 is not an integer: 13 / 2$"):
        poly.divide([2, 0, 1], [2, -4, -4], 4)
    assert poly.divide([2, 0, 1], [2, -4, -4], 2) == [1, 2]


def test_exact_division_checks():
    p, q = [1, -1, -1], [1, 2, 0, 5]
    assert poly.divexact(poly.mul(p, q), p) == q
    with pytest.raises(ArithmeticError):
        poly.divexact([1, 0, 1], [1, 1])  # 1 + z^2 = (1 + z)(1 - z) + 2z^2
    with pytest.raises(ArithmeticError):
        poly.divexact([1, 1], [2, 1])  # quotient not integral
    with pytest.raises(ArithmeticError):
        poly.divexact([3, 1], [2, 1])  # z^1 agrees with 1 * (2 + z); z^0 leaves 1
    with pytest.raises(ArithmeticError):
        poly.divexact([3], [1, 1])


def test_rational_gf_expansion():
    fib_like = RationalGF([1, 1, 1], [1, -1, -1])
    row = fib_like.expand(61)
    assert row[:17] == [1, 2, 4, 6, 10, 16, 26, 42, 68, 110, 178, 288, 466, 754, 1220, 1974, 3194]
    # the denominator-induced recurrence holds past the numerator degree
    for n in range(3, 61):
        assert row[n] == row[n - 1] + row[n - 2]


def test_rational_gf_long_expansion_is_cheap():
    row = RationalGF([1, 1, 1], [1, -1, -1]).expand(20000)
    assert row[19999] > 0


def test_rational_gf_rejects_zero_constant():
    with pytest.raises(ValueError):
        RationalGF([1], [0, 1])


def test_rational_gf_demands_integrality():
    with pytest.raises(ArithmeticError):
        RationalGF([1], [2, 1]).expand(3)


def _sympy_gcd(p, q):
    """gcd(p, q) by sympy, as a coefficient list lowest degree first."""
    import sympy

    z = sympy.Symbol("z")
    to_poly = lambda c: sympy.Poly(list(reversed(c)) or [0], z)  # noqa: E731
    return poly.trim([int(c) for c in reversed(sympy.gcd(to_poly(p), to_poly(q)).all_coeffs())])


@st.composite
def gcd_pairs(draw):
    """Two integer polynomials that share a factor, an integer content and a z-power
    more often than random ones would; either may be zero or a constant."""
    common = poly.trim(draw(st.lists(st.integers(-6, 6), max_size=4)))
    pair = []
    for _ in range(2):
        p = poly.trim(draw(st.lists(st.integers(-6, 6), max_size=5)))
        if draw(st.booleans()):
            p = poly.mul(p, common)
        pair.append(poly.shift(p, draw(st.integers(0, 3)), draw(st.sampled_from([1, -1, 3, -4]))))
    return pair


@settings(derandomize=True, deadline=None, max_examples=300)
@given(gcd_pairs())
def test_gcd_agrees_with_sympy(pair):
    """Both routes: the heuristic gcd, and the remainder sequence behind it."""
    p, q = pair
    want = _sympy_gcd(p, q)
    assert poly.cofactors(p, q)[0] == poly.cofactors(q, p)[0] == want
    for heuristic in (poly._heuristic_gcd, lambda p, q: None):
        with mock.patch.object(poly, "_heuristic_gcd", heuristic):
            g, p_red, q_red = poly.cofactors(p, q)
        assert g == want
        assert poly.mul(g, p_red) == poly.trim(list(p)) and poly.mul(g, q_red) == poly.trim(list(q))


def test_gcd_edge_cases():
    assert poly.cofactors([], [])[0] == []
    assert poly.cofactors([0, 0], [])[0] == []
    assert poly.cofactors([], [-2, -4])[0] == [2, 4]  # gcd(p, 0) is p up to sign
    assert poly.cofactors([6], [-4])[0] == [2]
    assert poly.cofactors([6], [3, 3])[0] == [3]
    assert poly.cofactors([0, 0, 2, 2], [0, 4, 4])[0] == [0, 2, 2]  # z (1 + z) and content 2
    assert poly.cofactors([-1, 0, 1], [1, 2, 1])[0] == [1, 1]
    assert poly.cofactors([1, 1], [-1, 1])[0] == [1]
    assert poly.cofactors([], []) == ([], [], [])
    assert poly.cofactors([0, -2], []) == ([0, 2], [-1], [])
    assert poly.cofactors([0, -6, -6], [0, 0, 4, 4]) == ([0, 2, 2], [-3], [0, 2])
