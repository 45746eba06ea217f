"""Integer recurrence engine against the DP and series engines."""

from __future__ import annotations

import random
import time

import pytest

from knightpaths import closedforms, fixtures, poly, recurrences, series
from knightpaths.counting import (
    ALL,
    NONNEG,
    altitude_distribution,
    altitude_distributions,
    count_primitive,
    count_row,
    grand_row_stats,
)
from knightpaths.paths import PathConstraints, reach

ZZ = PathConstraints(zigzag=True)


def test_total_row():
    assert recurrences.zigzag_total_row(17) == series.ZIGZAG_TOTAL_GF.expand(17)


def test_nonneg_row_vs_engines():
    fast = recurrences.zigzag_nonneg_row(30)
    assert fast[:30] == count_row(29, NONNEG, ZZ)
    assert fast[:30] == series.int_coefficients(series.zigzag_nonneg_gf(31), 30)


def test_altitude_sum_row_vs_dp():
    fast = recurrences.zigzag_altitude_sum_row(26)
    for n in range(26):
        dist = altitude_distribution(n, ZZ)
        assert fast[n] == sum(k * c for k, c in dist.items() if k > 0), n


def test_altitude_rows_vs_engines_to_200():
    n = 200
    for k in range(13):
        fast = recurrences.zigzag_altitude_row(k, n)
        assert recurrences.zigzag_altitude_row(-k, n) == fast, k
        assert fast == [closedforms.zigzag_count_closed(i, k) for i in range(n)], k
        assert fast == count_row(n - 1, k, ZZ) == count_row(n - 1, -k, ZZ), k
        if k >= 2:  # valuation 3k - 5
            assert not any(fast[: 3 * k - 5]) and fast[3 * k - 5], k


def test_altitude_row_below_its_valuation_is_zero():
    assert recurrences.zigzag_altitude_row(7, 16) == [0] * 16
    assert recurrences.zigzag_altitude_row(7, 17)[16] == 1
    assert recurrences.zigzag_altitude_row(-10 ** 6, 40) == [0] * 40


# k >= 2 expands (a r^(k - 1) + b r^k) / d; at k = 2 a corrupted a[0] adds r,
# of valuation 3, below the valuation 5 of d
@pytest.mark.parametrize("k", [0, 1, 2])
def test_corrupt_altitude_element_raises_not_rounds(monkeypatch, fresh_rows, k):
    calls = []
    real = recurrences._expand
    monkeypatch.setattr(recurrences, "_expand", lambda *args: calls.append(args) or real(*args))
    recurrences.zigzag_altitude_row(k, 40)
    x, _, *low = calls[-1]
    assert x.d[0] == 0  # so the expansion strips a z-power from a + b r
    Elt = recurrences._Elt
    with pytest.raises(ArithmeticError, match="vanish"):
        real(Elt([x.a[0] + 1, *x.a[1:]], x.b, x.d), 40, *low)
    v = poly.valuation(x.d)
    with pytest.raises(ArithmeticError, match="not an integer"):
        real(Elt(x.a, x.b, [*x.d[:v], 2 * x.d[v], *x.d[v + 1 :]]), 40, *low)


@pytest.mark.parametrize("name", ["r", "mixed"])
def test_power_by_squaring_equals_the_product_loop(name):
    Z, R = recurrences._Z, recurrences._R
    base = R if name == "r" else (1 + Z * R - 2 * Z**2) / (1 - Z)
    loop = recurrences._Elt([1])
    for k in range(0, 34):
        got = base**k
        assert (got.a, got.b, got.d) == (loop.a, loop.b, loop.d), (name, k)
        loop = loop * base


def test_zigzag_primitive_row():
    row = recurrences.zigzag_primitive_row(40)
    assert row[:23] == list(fixtures.SEQUENCES["zigzag-primitive"].terms)
    assert row[22] == 372
    for n in range(5, 40, 2):
        assert row[n] == 2, n
    assert row == [count_primitive(n) for n in range(40)]


def test_above_axis_row_vs_dp():
    fast = recurrences.above_axis_row(24)
    assert fast == count_row(23, ALL, PathConstraints(zigzag=True, min_y=0))


def test_above_axis_altitude_sum_vs_dp():
    fast = recurrences.above_axis_altitude_sum_row(22)
    for n in range(22):
        dist = altitude_distribution(n, PathConstraints(zigzag=True, min_y=0))
        assert fast[n] == sum(k * c for k, c in dist.items()), n


def test_above_line_rows_vs_engines():
    for m in (0, 1, 2, 3):
        fast = recurrences.above_line_row(m, 24)
        assert fast == count_row(23, ALL, PathConstraints(zigzag=True, min_y=-m)), m
        # staying below +m mirrors staying above -m
        assert fast == count_row(23, ALL, PathConstraints(zigzag=True, max_y=m)), m


def test_rows_extend_cheaply():
    row = recurrences.zigzag_nonneg_row(400)
    assert row[16] == 1973
    assert row[399] > 10 ** 80  # growth near the golden ratio reciprocal


def test_small_root_satisfies_kernel_to_order_600(fresh_rows):
    n = 600
    r = recurrences.small_root_coeffs(n)
    lhs = [0] * n  # z^3 r^2 + (z^4 + z^2 - 1) r + z^3, truncated at z^n
    lhs[3] += 1
    for i, x in enumerate(r):
        for j in range(n - 3 - i):
            lhs[i + j + 3] += x * r[j]
        for shift, c in ((0, -1), (2, 1), (4, 1)):
            if i + shift < n:
                lhs[i + shift] += c * x
    assert lhs == [0] * n


# -- naive O(n^2) reference: the kernel-method formulas on truncated series ----

N = 400
W = N + 16  # the top few coefficients are lost to divisions by z^k


def _mul(a, b):
    out = [0] * W
    for i, x in enumerate(a):
        if x:
            for j in range(W - i):
                out[i + j] += x * b[j]
    return out


def _shift(a, k):
    """z^k a; for k < 0 the dropped coefficients must vanish."""
    if k < 0:
        assert not any(a[:-k])
        return a[-k:] + [0] * -k
    return ([0] * k + a)[:W]


def _add(*terms):
    return [sum(t[i] for t in terms) for i in range(W)]


def _poly(*coeffs):
    return list(coeffs) + [0] * (W - len(coeffs))


def _div(a, b):
    assert b[0] in (1, -1)
    out = [0] * W
    for n in range(W):
        out[n] = (a[n] - sum(b[j] * out[n - j] for j in range(1, n + 1))) * b[0]
    return out


def _naive_root():
    r = [0] * W
    r[3] = 1
    for n in range(4, W):
        r[n] = r[n - 2] + r[n - 4] + sum(r[i] * r[n - 3 - i] for i in range(3, n - 5))
    return r


def _naive_rows():
    r = _naive_root()
    one, z, z2 = _poly(1), _poly(0, 1), _poly(0, 0, 1)
    one_minus_r = _add(one, [-x for x in r])
    up = _shift(_div(_mul(r, _poly(-1, 1)), _add(_shift(r, 2), _poly(-1, 1))), -3)
    lifted = _add(_mul(r, r), _mul(z, r), [2 * x for x in _mul(z2, _mul(r, up))])
    alt1, bundle = _shift(lifted, -2), _add(one, lifted)
    tail = _shift(_div(_mul(bundle, r), one_minus_r), -2)
    nonneg = _add([2 * x for x in up], [-x for x in one], alt1, tail)
    den2 = _mul(one_minus_r, one_minus_r)
    two_r_minus_r2 = _add([2 * x for x in r], [-x for x in _mul(r, r)])
    altsum = _add(alt1, _shift(_div(_mul(bundle, two_r_minus_r2), den2), -2))
    axis = _shift(_div(_mul(r, _poly(1, 1, 1)), one_minus_r), -3)
    inner = _add(_poly(0, 2, 1), r, [-x for x in _mul(z, r)])
    axis_sum = _shift(_div(_mul(r, inner), den2), -3)
    total = _div(_poly(1, 1, 1), _poly(1, -1, -1))
    return {
        "small_root_coeffs": r,
        "zigzag_total_row": total,
        "zigzag_nonneg_row": nonneg,
        "zigzag_altitude_sum_row": altsum,
        "above_axis_row": axis,
        "above_axis_altitude_sum_row": axis_sum,
    }, r


def _naive_above_line(r, m):
    power = [1] + [0] * (W - 1)
    powers = [power]
    for _ in range(m + 1):
        power = _mul(power, r)
        powers.append(power)
    num = _add(
        _shift(powers[m - 1], 1), _shift(powers[m], 2), powers[m + 1], _poly(-1, -1, -1)
    )
    return _div(num, _poly(-1, 1, 1))


def test_rows_match_naive_reference_to_400():
    rows, r = _naive_rows()
    for name, want in rows.items():
        assert getattr(recurrences, name)(N) == want[:N], name
    for m in (1, 2, 5):
        assert recurrences.above_line_row(m, N) == _naive_above_line(r, m)[:N], m


def test_above_line_rows_vs_dp_to_40():
    for m in range(7):
        dp = count_row(40, ALL, PathConstraints(zigzag=True, min_y=-m))
        assert recurrences.above_line_row(m, 41) == dp, m


def _altitude_minus_two_row(count):
    return recurrences.zigzag_altitude_row(-2, count)


def _grand_altitude_one_row(count):
    return recurrences.grand_altitude_row(1, count)


def _grand_altitude_minus_three_row(count):
    return recurrences.grand_altitude_row(-3, count)


ROWS = (
    recurrences.small_root_coeffs,
    recurrences.zigzag_total_row,
    recurrences.zigzag_nonneg_row,
    recurrences.zigzag_altitude_sum_row,
    recurrences.zigzag_primitive_row,
    recurrences.above_axis_row,
    recurrences.above_axis_altitude_sum_row,
    lambda count: recurrences.above_line_row(3, count),
    _altitude_minus_two_row,
    recurrences.grand_total_row,
    recurrences.grand_axis_row,
    recurrences.grand_altitude_sum_row,
    recurrences.grand_nonneg_row,
    recurrences.grand_positive_row,
    _grand_altitude_one_row,
    _grand_altitude_minus_three_row,
)


@pytest.mark.parametrize("row", ROWS)
def test_edge_counts(row):
    full = row(12)
    assert len(full) == 12
    assert row(-1) == []
    for count in range(4):
        assert row(count) == full[:count]


# -- rows derived once per process ------------------------------------------------

STORED = (
    "small_root_coeffs",
    "zigzag_total_row",
    "zigzag_nonneg_row",
    "_zigzag_axis_row",
    "_zigzag_alt1_row",
    "zigzag_altitude_sum_row",
    "zigzag_primitive_row",
    "above_axis_row",
    "above_axis_altitude_sum_row",
    "grand_total_row",
    "grand_axis_row",
    "_grand_alt1_row",
    "grand_altitude_sum_row",
)


@pytest.mark.parametrize("name", STORED)
def test_stored_row_equals_a_fresh_derivation(fresh_rows, name):
    row = getattr(recurrences, name)
    derive = row.__wrapped__  # the row's derivation, which stores nothing
    counts = list(range(201))
    random.Random(name).shuffle(counts)
    longest = 0
    for count in counts:
        assert row(count) == derive(count), (name, count)
        longest = max(longest, count)
        assert len(recurrences._memo.get(name, [])) == longest, (name, count)


#: the stored rows that unroll a recurrence, and the terms of it a row of count terms unrolls
RESUMED = {
    # r^1 of the power recurrence at the odd sizes from 3
    "small_root_coeffs": lambda count: (count - 2) // 2,
    "grand_total_row": lambda count: count,
    "grand_axis_row": lambda count: count,
    "_grand_alt1_row": lambda count: count,
    "grand_altitude_sum_row": lambda count: count,
}


@pytest.mark.parametrize("name", STORED)
def test_a_longer_row_continues_the_kept_one(fresh_rows, monkeypatch, name):
    """A short row then a long one equals a fresh long one; a row that unrolls
    a recurrence unrolls only the terms past the kept ones."""
    row = getattr(recurrences, name)
    fresh = row.__wrapped__(300)
    unroll, calls = recurrences._unroll, []

    def spy(coeffs, initial, count):
        calls.append((len(initial), count))
        return unroll(coeffs, initial, count)

    monkeypatch.setattr(recurrences, "_unroll", spy)
    for short in (9, 120):
        recurrences._memo.clear()
        assert row(short) == fresh[:short], (name, short)
        calls.clear()
        assert row(300) == fresh, (name, short)
        if name in RESUMED:  # a row expanded from its element is expanded again
            terms = RESUMED[name]
            assert calls == [(terms(short), terms(300))], (name, short, calls)


@pytest.mark.parametrize("name", STORED)
def test_a_returned_row_is_the_callers_own(fresh_rows, name):
    row = getattr(recurrences, name)
    want = row.__wrapped__(40)
    for count in (40, 30, 40):
        got = row(count)
        got[count // 2] += 1
        got.append(7)
        assert row(40) == want, (name, count)


def test_rows_with_a_parameter_store_nothing_of_their_own(fresh_rows):
    for k in range(2, 41):
        recurrences.zigzag_altitude_row(k, 200)
    assert sorted(recurrences._memo) == ["boundary", "small_root_coeffs"]
    for k in range(2, 41):
        recurrences.grand_altitude_row(k, 200)
    for m in range(1, 6):
        recurrences.above_line_row(m, 200)
    # the line rows add the zigzag total, a row without a parameter
    stored = [
        "_grand_alt1_row", "boundary", "grand_axis_row", "small_root_coeffs", "zigzag_total_row"
    ]
    assert sorted(recurrences._memo) == stored
    assert len(recurrences._memo["grand_axis_row"]) == 200


def test_the_boundary_is_built_once(fresh_rows):
    first = recurrences._boundary()
    recurrences.zigzag_nonneg_row(30)
    recurrences.zigzag_altitude_row(5, 30)
    assert recurrences._boundary() is first


def test_negative_m_is_rejected():
    with pytest.raises(ValueError):
        recurrences.above_line_row(-1, 10)


def test_a_line_past_the_reach_gives_the_total_row():
    # no zigzag path of size <= 9 reaches below -reach(9) = -4, so every
    # deeper line gives the total row, without building r^(m - 1)
    start = time.perf_counter()
    assert recurrences.above_line_row(3000, 10) == recurrences.zigzag_total_row(10)
    assert time.perf_counter() - start < 1.0
    for count in range(1, 40):
        r = reach(count - 1, True)
        total = recurrences.zigzag_total_row(count)
        assert recurrences.above_line_row(r, count) == total, count
        assert recurrences.above_line_row(r + 5, count) == total, count
    assert recurrences.above_line_row(7, 0) == []


def test_corrupt_root_tap_raises_not_rounds(monkeypatch, fresh_rows):
    """The root is r^1 of `_ROOT_POWER`, where D_s alpha^2 = D_s: any entry one
    off leaves a term of the root fractional."""
    for entry in range(len(recurrences._ROOT_POWER)):
        table = list(recurrences._ROOT_POWER)
        A, B, C, D = table[entry]
        table[entry] = (A, B, C, D + 1)
        with monkeypatch.context() as patch:
            patch.setattr(recurrences, "_ROOT_POWER", tuple(table))
            with pytest.raises(ArithmeticError, match="not an integer"):
                recurrences.small_root_coeffs(50)


def test_corrupt_row_element_raises_not_rounds():
    Z, Elt = recurrences._Z, recurrences._Elt
    up = recurrences._boundary()[0]
    assert up.d[0] == 0  # so the expansion strips a z-power from a + b r
    recurrences._expand(up, 30)
    bad_a = [up.a[0] + 1, *up.a[1:]]
    with pytest.raises(ArithmeticError, match="vanish"):
        recurrences._expand(Elt(bad_a, up.b, up.d), 30)
    total = (1 + Z + Z**2) / (1 - Z - Z**2)
    assert recurrences._expand(total, 30) == recurrences.zigzag_total_row(30)
    bad_d = [2 * total.d[0], *total.d[1:]]
    with pytest.raises(ArithmeticError, match="not an integer"):
        recurrences._expand(Elt(total.a, total.b, bad_d), 30)


# -- lowest terms: the element each row expands -------------------------------------

# a row call -> (deg d as the field arithmetic builds it, deg d in lowest terms)
REDUCED_DEGREES = {
    ("zigzag_total_row",): (2, 2),
    ("zigzag_nonneg_row",): (18, 6),
    ("_zigzag_axis_row",): (6, 6),
    ("_zigzag_alt1_row",): (9, 9),
    ("zigzag_altitude_row", 3): (9, 9),
    ("zigzag_altitude_sum_row",): (16, 8),
    ("zigzag_primitive_row",): (2, 1),
    ("above_axis_row",): (4, 2),
    ("above_axis_altitude_sum_row",): (8, 4),
    ("above_line_row", 2): (5, 5),
}


@pytest.mark.parametrize("call", REDUCED_DEGREES)
def test_each_row_expands_its_element_in_lowest_terms(monkeypatch, fresh_rows, call):
    """Every element `_expand` reads has gcd(a, b, d) = 1, and equals the one built."""
    import sympy

    seen = []
    real = recurrences._Elt.reduced
    monkeypatch.setattr(recurrences._Elt, "reduced", lambda x: seen.append((x, real(x))) or seen[-1][1])
    name, *param = call
    getattr(recurrences, name)(*param, 60)
    built, read = seen[-1]  # a line row expands the zigzag total first
    assert (len(built.d) - 1, len(read.d) - 1) == REDUCED_DEGREES[call]
    z = sympy.Symbol("z")
    for built, read in seen:
        a, b, d = (sympy.Poly(list(reversed(p)) or [0], z) for p in (read.a, read.b, read.d))
        assert sympy.gcd(sympy.gcd(a, b), d).as_expr() == 1, call
        for p, q in ((built.a, read.a), (built.b, read.b)):
            assert poly.mul(p, read.d) == poly.mul(q, built.d), call


def test_an_element_is_reduced_once_however_often_it_is_expanded(monkeypatch, fresh_rows):
    recurrences.zigzag_altitude_row(4, 30)
    calls = []
    real = poly.cofactors
    monkeypatch.setattr(poly, "cofactors", lambda p, q: calls.append(1) or real(p, q))
    for k in (2, 3, -5, 9):
        recurrences.zigzag_altitude_row(k, 60)
    assert calls == []


def test_a_planted_non_divisor_gcd_raises_not_rounds(monkeypatch, fresh_rows):
    monkeypatch.setattr(poly, "_heuristic_gcd", lambda p, q: None)
    monkeypatch.setattr(poly, "_remainder_gcd", lambda p, q: [1, 3])  # 1 + 3z divides none of them
    with pytest.raises(ArithmeticError):
        recurrences.zigzag_nonneg_row(40)
    monkeypatch.setattr(poly, "_remainder_gcd", lambda p, q: [1])  # a divisor, not the greatest
    recurrences._memo.clear()
    assert recurrences.zigzag_nonneg_row(40) == count_row(39, NONNEG, ZZ)


# -- powers of the small root: the recurrence behind the altitude and line rows ----


def _power_recurrence_from_the_kernel():
    """{s: p_s(n, alpha)} of sum_s p_s(n, alpha) [z^(n - s)] r^alpha = 0, derived in sympy.

    With theta = z d/dz and y = r^alpha, theta y / y = alpha theta r / r and
    theta^2 y / y = theta(theta y / y) + (theta y / y)^2 lie in Q(z, alpha)(S),
    S = sqrt(Delta); the one relation c0 + c1 (theta y / y) + c2 (theta^2 y / y)
    = 0 there is the ODE, and [z^n] z^j theta^i y = (n - j)^i [z^(n - j)] y.
    """
    import sympy

    z, a, n = sympy.symbols("z alpha n")
    L = 1 - z**2 - z**4
    delta = sympy.expand(L**2 - 4 * z**6)

    def mul(x, y):  # (u + v S)(u' + v' S)
        u = x[0] * y[0] + x[1] * y[1] * delta
        return sympy.cancel(u), sympy.cancel(x[0] * y[1] + x[1] * y[0])

    def inverse(x):
        norm = x[0] ** 2 - x[1] ** 2 * delta
        return sympy.cancel(x[0] / norm), sympy.cancel(-x[1] / norm)

    def theta(x):  # S' = Delta' S / (2 Delta)
        dv = sympy.diff(x[1], z) + x[1] * sympy.diff(delta, z) / (2 * delta)
        return sympy.cancel(z * sympy.diff(x[0], z)), sympy.cancel(z * dv)

    r = (L / (2 * z**3), -1 / (2 * z**3))
    t1 = tuple(a * c for c in mul(theta(r), inverse(r)))
    square = mul(t1, t1)
    t2 = tuple(sympy.cancel(u + v) for u, v in zip(theta(t1), square))
    ode = [sympy.cancel(t2[1] * t1[0] - t1[1] * t2[0]), -t2[1], t1[1]]  # c0, c1, c2
    den = sympy.lcm([sympy.fraction(sympy.together(c))[1] for c in ode])
    ode = [sympy.Poly(sympy.cancel(c * den), z, a) for c in ode]
    common = sympy.gcd(sympy.gcd(ode[0], ode[1]), ode[2])
    ode = [sympy.div(c, common)[0] for c in ode]
    taps = {}
    for i, c in enumerate(ode):
        for (j, e), coeff in c.terms():
            taps[j] = taps.get(j, 0) + coeff * a**e * (n - j) ** i
    low = min(taps)
    return {j - low: sympy.expand(p.subs(n, n + low)) for j, p in taps.items()}, n, a


def test_root_power_recurrence_is_derived_from_the_kernel():
    import sympy

    derived, n, a = _power_recurrence_from_the_kernel()
    committed = {
        2 * s: A * n**2 + B * n + C + D * a**2
        for s, (A, B, C, D) in enumerate(recurrences._ROOT_POWER)
    }
    assert sorted(derived) == sorted(committed) == list(range(0, 13, 2))
    scale = sympy.cancel(derived[0] / committed[0])
    assert scale.is_number and scale != 0
    assert all(sympy.expand(derived[s] - scale * committed[s]) == 0 for s in derived)


def test_root_power_lead_vanishes_only_at_the_valuation():
    import sympy

    n, a = sympy.symbols("n alpha")
    A, B, C, D = recurrences._ROOT_POWER[0]
    assert sympy.roots(A * n**2 + B * n + C + D * a**2, n) == {3 * a: 1, -3 * a: 1}


def test_root_powers_equal_products():
    n = 200
    r = recurrences.small_root_coeffs(n)
    powers = [[1] + [0] * (n - 1)]
    for _ in range(41):
        powers.append(_truncated_product(powers[-1], r, n))
    for j in range(41):
        if j:
            assert recurrences._unroll_power(j, n) == powers[j], j
        assert recurrences._root_power(j, n) == powers[j], j
        assert recurrences._root_powers(j, n) == (powers[j], powers[j + 1]), j


@pytest.mark.parametrize("entry", range(len(recurrences._ROOT_POWER)))
def test_corrupt_root_power_recurrence_raises_not_rounds(monkeypatch, entry):
    table = list(recurrences._ROOT_POWER)
    A, B, C, D = table[entry]
    table[entry] = (A, B, C + 1, D)
    monkeypatch.setattr(recurrences, "_ROOT_POWER", tuple(table))
    with pytest.raises(ArithmeticError, match="not an integer"):
        recurrences.zigzag_altitude_row(9, 120)


def test_kernel_step_from_a_corrupt_power_raises_not_rounds(monkeypatch):
    real = recurrences._root_power

    def corrupt(alpha, count):
        power = real(alpha, count)
        power[3 * alpha + 2] += 1
        return power

    monkeypatch.setattr(recurrences, "_root_power", corrupt)
    with pytest.raises(ArithmeticError, match="r\\^6 term 14 is not an integer"):
        recurrences._root_powers(5, 60)


def test_altitude_and_line_rows_equal_the_field_route_and_dp():
    # the rows before the power recurrence: r^j expanded as an element of Q(z)(r)
    Z, R, n = recurrences._Z, recurrences._R, 300
    high = recurrences._boundary()[2]
    dists = list(altitude_distributions(n - 1, ZZ))
    for k in range(2, 41):
        row = recurrences.zigzag_altitude_row(k, n)
        assert row == recurrences._expand(R ** (k - 1) * high, n), k
        assert row == [dist.get(k, 0) for dist in dists], k
    for m in range(1, 41):
        low = R ** (m - 1)
        num = Z * low + Z**2 * low * R + low * R**2 - 1 - Z - Z**2
        row = recurrences.above_line_row(m, n)
        assert row == recurrences._expand(num / (Z**2 + Z - 1), n), m
        assert row == count_row(n - 1, ALL, PathConstraints(zigzag=True, min_y=-m)), m


# -- grand rows: certified P-recurrences ------------------------------------------

GRAND_ROWS = {
    "total": recurrences.grand_total_row,
    "axis": recurrences.grand_axis_row,
    "altitude_sum": recurrences.grand_altitude_sum_row,
    "nonneg": recurrences.grand_nonneg_row,
    "positive": recurrences.grand_positive_row,
}

RECURRENCES = {
    "total": recurrences._GRAND_TOTAL,
    "axis": recurrences._GRAND_AXIS,
    "alt1": recurrences._GRAND_ALT1,
    "altitude_sum": recurrences._GRAND_ALTITUDE_SUM,
}

EQUATIONS = {
    "axis": recurrences._GRAND_AXIS_EQUATION,
    "altitude_sum": recurrences._GRAND_ALTITUDE_SUM_EQUATION,
}

GRAND = PathConstraints()


def _dp_terms(key, count):
    """The first count DP terms of the sequence a committed recurrence stands for."""
    if key == "alt1":
        return count_row(count - 1, 1, GRAND)
    return grand_row_stats(count - 1)[key]


def test_grand_rows_match_dp_to_300():
    # far past the <= 100 terms each recurrence was fitted from
    stats = grand_row_stats(300)
    for key, row in GRAND_ROWS.items():
        assert row(301) == stats[key], key


def _truncated_product(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


@pytest.mark.parametrize("key", ["axis", "altitude_sum"])
def test_grand_rows_satisfy_the_kernel_algebraic_equation(key):
    import sympy

    z, v, t, x = sympy.symbols("z v t x")
    kernel = v**2 - z * v**4 - z - z**2 * v - z**2 * v**3  # u^2 / K(u) marks altitude by u
    dk = sympy.diff(kernel, v)
    # [u^k] u^2 / K(u) = -sum of v^(1-k) / K'(v) over the two large roots v, k >= 0;
    # summing k u^k over k >= 1 gives -v^2 / (K'(v) (v - 1)^2)
    num, den = {"axis": (v, dk), "altitude_sum": (v**2, dk * (v - 1) ** 2)}[key]
    single = sympy.resultant(kernel, t * den + num, v)  # roots -num/den at each root
    pair = sympy.resultant(single, single.subs(t, x - t), t)  # roots: sums of two
    n = 100
    row = GRAND_ROWS[key](n)
    powers = [[1] + [0] * (n - 1)]
    for _ in range(sympy.degree(pair, x)):
        powers.append(_truncated_product(powers[-1], row, n))
    hits = []
    for factor, _ in sympy.factor_list(pair, x, z)[1]:
        value = [0] * n
        for (i, j), c in sympy.Poly(factor, x, z).terms():
            for k in range(n - j):
                value[k + j] += int(c) * powers[i][k]
        if not any(value):
            hits.append(factor)
    assert len(hits) == 1 and sympy.degree(hits[0], x) == 4, hits
    # the committed equation, which verify evaluates without sympy, is that factor
    committed = sum(
        c * x**i * z**j for i, p in enumerate(EQUATIONS[key]) for j, c in enumerate(p)
    )
    assert sympy.expand(committed - hits[0]) == 0 or sympy.expand(committed + hits[0]) == 0


@pytest.mark.parametrize("key", ["axis", "alt1", "altitude_sum"])
def test_committed_recurrence_is_the_unique_fit(key):
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    coeffs, _ = RECURRENCES[key]
    r, d = len(coeffs) - 1, max(len(p) for p in coeffs) - 1
    unknowns = (r + 1) * (d + 1)
    a = _dp_terms(key, r + unknowns + 21)  # 20 spare equations
    rows = [
        [QQ(n**j * a[n - i]) for i in range(r + 1) for j in range(d + 1)]
        for n in range(r, len(a))
    ]
    kernel = DomainMatrix(rows, (len(rows), unknowns), QQ).nullspace().to_Matrix()
    assert kernel.shape[0] == 1
    want = [c for p in coeffs for c in (*p, *[0] * (d + 1 - len(p)))]
    k = next(i for i, c in enumerate(want) if c)
    assert [c * want[k] / kernel[k] for c in kernel] == want


@pytest.mark.parametrize("key", sorted(RECURRENCES))
def test_initial_terms_reach_past_leading_roots(key):
    coeffs, initial = RECURRENCES[key]
    lead = coeffs[0]
    assert len(initial) == len(coeffs) - 1 and lead[-1]
    bound = 2 + max(abs(c) for c in lead) // abs(lead[-1])  # Cauchy
    roots = [k for k, v in enumerate(recurrences._values(lead, range(bound))) if not v]
    assert all(k < len(initial) for k in roots), roots


def test_corrupt_grand_recurrence_raises_not_rounds(monkeypatch, fresh_rows):
    coeffs, initial = recurrences._GRAND_AXIS
    bad = (coeffs[0], (coeffs[1][0] + 1, *coeffs[1][1:]), *coeffs[2:])
    with pytest.raises(ArithmeticError, match="not an integer"):
        recurrences._unroll(bad, initial, 40)
    with pytest.raises(ArithmeticError, match="vanishes at n = 3"):
        recurrences._unroll(((-3, 1), (0,)), (1,), 10)  # (n - 3) a(n) = 0
    monkeypatch.setattr(recurrences, "_GRAND_AXIS", (coeffs, (1, 1, *initial[2:])))
    with pytest.raises(ArithmeticError, match="odd"):
        recurrences.grand_nonneg_row(2)
    with pytest.raises(ArithmeticError, match="odd"):
        recurrences.grand_positive_row(2)


# -- grand rows by altitude: the altitude-1 recurrence and the mixed one ------------


def test_grand_altitude_rows_match_dp_to_300():
    n = 300
    dists = list(altitude_distributions(n, GRAND))
    for k in range(-12, 13):
        want = [dist.get(k, 0) for dist in dists]
        assert recurrences.grand_altitude_row(k, n + 1) == want, k


def test_grand_altitude_row_below_its_reach_is_zero():
    assert recurrences.grand_altitude_row(6, 3) == [0, 0, 0]
    assert recurrences.grand_altitude_row(-6, 4) == [0, 0, 0, 1]  # three N steps
    assert recurrences.grand_altitude_row(-10 ** 6, 40) == [0] * 40


def test_mixed_recurrence_annihilates_the_grand_generating_function():
    import sympy

    (shift, lead), *_ = recurrences._GRAND_MIXED
    assert shift == (0, 0) and any(lead)  # the term the row divides by
    z, y = sympy.symbols("z y")
    G = 1 / (1 - z * (y**2 + y**-2) - z**2 * (y + 1 / y))
    # [z^n y^k] c(z d/dz, y d/dy) [z^i y^j G] = c(n, k) g(n - i, k - j)
    total = 0
    for (i, j), (a, b, c) in recurrences._GRAND_MIXED:
        f = z**i * y**j * G
        total += a * f + b * z * sympy.diff(f, z) + c * y * sympy.diff(f, y)
    assert sympy.cancel(sympy.together(total)) == 0


def test_corrupt_altitude_one_recurrence_raises_not_rounds(monkeypatch, fresh_rows):
    coeffs, initial = recurrences._GRAND_ALT1
    bad = (coeffs[0], (coeffs[1][0] + 1, *coeffs[1][1:]), *coeffs[2:])
    monkeypatch.setattr(recurrences, "_GRAND_ALT1", (bad, initial))
    with pytest.raises(ArithmeticError, match="not an integer"):
        recurrences.grand_altitude_row(1, 40)


@pytest.mark.parametrize("entry", range(len(recurrences._GRAND_MIXED)))
def test_corrupt_mixed_recurrence_raises_not_rounds(monkeypatch, entry):
    mixed = list(recurrences._GRAND_MIXED)
    shift, (a, b, c) = mixed[entry]
    mixed[entry] = (shift, (a + 1, b, c))
    monkeypatch.setattr(recurrences, "_GRAND_MIXED", tuple(mixed))
    with pytest.raises(ArithmeticError, match="not an integer"):
        recurrences.grand_altitude_row(4, 40)
