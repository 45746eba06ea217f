"""Integer coefficient recurrences for the zigzag and grand sequences needed at large sizes.

The asymptotic checks compare against exact values at sizes in the
thousands, and the generating-function engine of `count` and most `gf`
names read their coefficients here.  These come from code independent
of the dynamic program, which checks every row, and the zigzag rows at
an altitude are checked by the closed forms too.  The kernel series of
`series` take only the small root from here (`small_root_coeffs`,
certified against the kernel by `verify`) and check the arithmetic of the
nonneg row.  Each zigzag row costs O(n) big-integer steps at any altitude
or line, and a grand row at altitude k costs O(k n).

Every zigzag-side series here lies in the quadratic extension Q(z)(r) of
the small kernel root r, the power series root (valuation 3) of

    z^3 r^2 + (z^4 + z^2 - 1) r + z^3 = 0,

with L = 1 - z^2 - z^4.  r and its powers come from one P-recurrence,
`_ROOT_POWER` (below), and `verify` certifies r against the kernel by
integer products.  Each row is written once, as in its kernel-method
derivation, in a small private field arithmetic (`_Elt`) that keeps every
element as (A + B r) / D with integer polynomials A, B, D; the polynomial
operations are those of `poly`, which `transfer` shares.
Products reduce r^2 = (L r - z^3) / z^3; inverses multiply by the conjugate
root 1/r = L/z^3 - r, whose norm is a polynomial.  A row is expanded from
its element in lowest terms (`_Elt.reduced`, which takes D from degree 18
to 6 for the nonneg row) as the polynomial-times-series A + B r followed by
division by the polynomial D, a linear recurrence of order deg D.

The rows at a zigzag altitude k >= 2 and above a line y = -m are r^j times
such an element, j = k - 1 or m - 1, so they read the powers r^j and
r^(j + 1).  A power of an algebraic series is D-finite (Stanley, Eur. J.
Combin. 1, 1980): r^alpha solves a linear ODE of order 2 whose
coefficients involve alpha^2, so its coefficients follow a P-recurrence
with alpha as a parameter, `_ROOT_POWER`, derived from the kernel in the
tests and checked by `verify`.  It unrolls r itself (alpha = 1) and r^j in
O(n) steps for any j, and the kernel, differentiated, gives r^(j + 1) from
r^j.

The grand (non-zigzag) rows are algebraic too, hence D-finite.  All grand
paths follow 1/(1 - 2z - 2z^2).  The paths ending on the axis, the paths
ending at altitude 1 and the sum of final altitudes each satisfy a
P-recurrence

    sum_{i=0}^{r} p_i(n) a(n - i) = 0    for n >= r,

with integer polynomials p_i, committed below as data.  Each was guessed
over Q from the first terms of the dynamic program (the unique solution at
its order and degree) and is certified in the tests against the dynamic
program to n = 300.  The axis and altitude-sum generating functions are
algebraic of degree 4; their equations are committed too, and `verify`
evaluates each on its row with integer products alone.  The rows ending at y >= 0 and at y > 0 then follow
from the y -> -y symmetry.

The paths g(n, k) ending at altitude k >= 2 follow from the rows k - 1 and
k - 2 by a mixed recurrence in n and k, `_GRAND_MIXED`.  It is proved, not
guessed: applied as an operator in z d/dz and y d/dy to the shifted
generating functions z^i y^j G, G = 1/(1 - z(y^2 + y^-2) - z^2(y + y^-1)),
it sums to zero, which the tests check in sympy (the holonomic systems
approach of Zeilberger, J. Comput. Appl. Math. 32, 1990).  Row k costs
O(k n) steps.

Every division is exact by construction and is checked: a remainder
raises ArithmeticError, nothing is rounded.

The rows that take no parameter, the small root's series and the boundary
series the zigzag rows are built from, are derived once per process:
`_memo` keeps each row at the longest count asked for so far, and a shorter
request gets a fresh copy of its prefix.  A longer request continues a row
that unrolls a recurrence (the small root and the grand rows) from its
kept terms, and derives any other row again; either way the longer row
replaces the kept one.  Each coefficient of a row reads only lower ones,
so a prefix equals a fresh derivation.  Rows that take a parameter (a
zigzag or grand altitude |k| >= 2, a line m >= 1) keep nothing and build
on the stored ones, so the memo holds at most thirteen series, each at
the largest count asked for.
"""

from __future__ import annotations

import functools
import math
from itertools import accumulate, repeat
from operator import add, mul, sub

from . import poly
from .paths import reach

_L = [1, 0, -1, 0, -1]

# name -> the stored row, or "boundary" -> the elements of `_boundary`
_memo: dict[str, object] = {}


def _stored(derive, resume: bool = False):
    """derive as a row function whose row is kept at the longest count asked for.

    With resume, derive(count, kept) continues the shorter row kept so far
    (empty at first) and derives only the new terms; otherwise derive(count)
    starts over.
    """
    name = derive.__name__

    @functools.wraps(derive)
    def row(count: int) -> list[int]:
        if count <= 0:
            return []
        kept = _memo.get(name)
        if kept is None or len(kept) < count:
            kept = _memo[name] = derive(count, kept or []) if resume else derive(count)
        return kept[:count]

    return row


#: _stored for the rows that unroll a recurrence, which continue the kept row
_resumed = functools.partial(_stored, resume=True)


def _continued(recurrence, count: int, kept=()) -> list[int]:
    """The first count terms of a recurrence (coeffs, initial), continuing the kept ones."""
    coeffs, initial = recurrence
    return _unroll(coeffs, max(kept, initial, key=len), count)


# A recurrence is (coeffs, initial): coeffs[i] lists the coefficients of
# p_i(n), constant term first, and initial holds a(0), ..., a(len - 1).  The
# nonnegative integer roots of p_0 all lie below len(initial), so no
# unrolled term divides by zero.


def _values(p: tuple[int, ...], sizes: range) -> list[int]:
    """p(n) for every n in the unit-step range sizes, as running sums of its differences."""
    degree, start = len(p) - 1, sizes.start
    row = [sum(c * n**i for i, c in enumerate(p)) for n in range(start, start + degree + 1)]
    diffs = []  # the forward differences of p at start, the constant one last
    for _ in range(degree + 1):
        diffs.append(row[0])
        row = list(map(sub, row[1:], row))
    values = repeat(diffs.pop(), max(len(sizes) - degree, 0))
    for d in reversed(diffs):
        values = accumulate(values, initial=d)
    return list(values)[: len(sizes)]


def _unroll(coeffs, initial, count: int) -> list[int]:
    """The first count terms of sum_i p_i(n) a(n - i) = 0 from its initial terms.

    a vanishes at negative n.  The values p_i(n) are tabulated first, so each
    term is one inner product and one checked division.
    """
    if count <= 0:
        return []
    order = len(coeffs) - 1
    sizes = range(len(initial), count)
    table = [_values(p, sizes) for p in coeffs]
    out = [0] * order + list(initial[:count])  # a(n) at out[n + order]
    for n, lead, taps in zip(sizes, table[0], zip(*reversed(table[1:]))):
        if not lead:
            raise ArithmeticError(f"leading coefficient vanishes at n = {n}")
        q, rem = divmod(-sum(map(mul, taps, out[n : n + order])), lead)
        if rem:
            raise ArithmeticError(f"term {n} is not an integer")
        out.append(q)
    return out[order:]


# The powers g = r^alpha of the small root, a P-recurrence in n with alpha as
# a parameter: sum_s p_s(n, alpha) g(n - s) = 0 over s = 0, 2, ..., 12, with
# p_s = A_s n^2 + B_s n + C_s + D_s alpha^2.  Each entry is (A_s, B_s, C_s,
# D_s), p_0 first.  It is the recurrence of the order-2 linear ODE that r^alpha
# solves (a power of an algebraic series is D-finite), derived from the
# kernel in the tests.  The lead 3 (n - 3 alpha)(n + 3 alpha) vanishes only
# at r^alpha's valuation 3 alpha, where its first term is 1.
_ROOT_POWER = (
    (3, 0, 0, -27),
    (-7, 24, -20, 27),
    (0, -12, 48, -36),
    (-7, 72, -180, 19),
    (4, -48, 128, -12),
    (-3, 60, -300, 3),
    (1, -24, 144, -1),
)


def _root_power(alpha: int, count: int) -> list[int]:
    """The first count coefficients of r^alpha (count >= 1).

    r^0 = 1, r^1 is the stored root, the kernel gives r^2 = L r / z^3 - 1,
    and higher powers unroll `_ROOT_POWER`.
    """
    if alpha == 0:
        return [1] + [0] * (count - 1)
    if alpha == 1:
        return small_root_coeffs(count)
    if alpha == 2:
        r = small_root_coeffs(count + 3)
        # [z^n] L r / z^3 = r[n + 3] - r[n + 1] - r[n - 1]
        out = list(map(sub, r[3:], r[1:]))
        out[1:] = map(sub, out[1:], r)
        out[0] -= 1
        return out
    return _unroll_power(alpha, count)


def _unroll_power(alpha: int, count: int, kept=()) -> list[int]:
    """The first count coefficients of r^alpha (alpha >= 1) from `_ROOT_POWER`.

    r is odd in z, so r^alpha keeps only the sizes n = 3 alpha + 2t.  On them
    the recurrence is one in t of order 6 whose lead 12 t (t + 3 alpha)
    vanishes at t = 0 only, and `_unroll` runs it from the one term 1 there,
    or continues the kept coefficients of r^alpha (of every size, from 0).
    """
    start = 3 * alpha
    out = [0] * count
    if count > start:
        a2 = alpha * alpha
        # p_s at n = 3 alpha + 2t, as a polynomial in t
        coeffs = [
            (9 * A * a2 + 3 * B * alpha + C + D * a2, 12 * A * alpha + 2 * B, 4 * A)
            for A, B, C, D in _ROOT_POWER
        ]
        out[start::2] = _continued((coeffs, (1,)), (count - start + 1) // 2, kept[start::2])
    return out


@_resumed
def small_root_coeffs(order: int, kept=()) -> list[int]:
    """Coefficients of the small zigzag kernel root (valuation 3): r^1 of `_ROOT_POWER`."""
    return _unroll_power(1, order, kept)


def _root_powers(j: int, count: int) -> tuple[list[int], list[int]]:
    """(r^j, r^(j + 1)), each to count terms, with at most one unroll.

    For j >= 2, differentiating the kernel and reducing by it gives, with
    theta = z d/dz,

        theta r^(j + 1) = (j + 1) / (2 j z^3) (L theta r^j - j (3 - z^2 + z^4) r^j),

    so r^(j + 1) takes a few row operations and one checked division per term.
    """
    if j < 2:
        return _root_power(j, count), _root_power(j + 1, count)
    power = _root_power(j, count + 3)
    # n [z^n] r^(j + 1) = (j + 1) w(n + 3) / (2 j) with g = r^j and
    # w(m) = (m - 3j) g(m) + (j + 2 - m) g(m - 2) - (m + j - 4) g(m - 4),
    # over the sizes m of g's parity, p + 2i
    p = j % 2
    g = power[p::2]
    w = list(map(mul, range(p - 3 * j, len(power) - 3 * j, 2), g))
    w[1:] = map(add, w[1:], map(mul, range(j - p, -len(power), -2), g))
    w[2:] = map(sub, w[2:], map(mul, range(p + j, p + j + len(power), 2), g))
    steps = range(2 * j * (p + 1), 2 * j * count, 4 * j)  # 2 j n at n = p + 1 + 2i
    quotients = list(map(divmod, map(mul, repeat(j + 1), w[2:]), steps))
    bad = next((i for i, (_, rem) in enumerate(quotients) if rem), None)
    if bad is not None:
        raise ArithmeticError(f"r^{j + 1} term {p + 1 + 2 * bad} is not an integer")
    above = [0] * count
    above[p + 1 :: 2] = [q for q, _ in quotients]
    return power[:count], above


class _Elt:
    """(a + b r) / d in Q(z)(r).

    Kept with no common z-power or integer content, and with the lowest
    nonzero coefficient of d positive; `_expand` cancels any other common
    factor once (`reduced`), as a gcd in every operation costs more than it saves.
    """

    __slots__ = ("a", "b", "d", "_lowest")

    def __init__(self, a: list[int], b: list[int] = (), d: list[int] = (1,)):
        a, b, d = poly.trim(list(a)), poly.trim(list(b)), poly.trim(list(d))
        if not d:
            raise ZeroDivisionError("zero denominator")
        k = min(poly.valuation(p) for p in (a, b, d) if p)
        g = math.gcd(*a, *b, *d)
        if d[poly.valuation(d)] < 0:
            g = -g
        self.a = [c // g for c in a[k:]]
        self.b = [c // g for c in b[k:]]
        self.d = [c // g for c in d[k:]]
        self._lowest = None

    def __add__(self, other) -> _Elt:
        o = _lift(other)
        return _Elt(
            poly.add(poly.mul(self.a, o.d), poly.mul(o.a, self.d)),
            poly.add(poly.mul(self.b, o.d), poly.mul(o.b, self.d)),
            poly.mul(self.d, o.d),
        )

    __radd__ = __add__

    def __neg__(self) -> _Elt:
        return _Elt([-c for c in self.a], [-c for c in self.b], self.d)

    def __sub__(self, other) -> _Elt:
        return self + -_lift(other)

    def __rsub__(self, other) -> _Elt:
        return _lift(other) - self

    def __mul__(self, other) -> _Elt:
        o = _lift(other)
        bb = poly.mul(self.b, o.b)
        # r^2 = (L r - z^3) / z^3
        return _Elt(
            poly.add(poly.shift(poly.mul(self.a, o.a), 3), poly.shift(bb, 3, -1)),
            poly.add(
                poly.shift(poly.add(poly.mul(self.a, o.b), poly.mul(self.b, o.a)), 3),
                poly.mul(_L, bb),
            ),
            poly.shift(poly.mul(self.d, o.d), 3),
        )

    __rmul__ = __mul__

    def inverse(self) -> _Elt:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _Elt(d, [], a)
        # (a + b r)(z^3 a + b L - z^3 b r) = z^3 a^2 + a b L + z^3 b^2
        return _Elt(
            poly.mul(d, poly.add(poly.shift(a, 3), poly.mul(b, _L))),
            poly.mul(d, poly.shift(b, 3, -1)),
            poly.add(
                poly.shift(poly.add(poly.mul(a, a), poly.mul(b, b)), 3),
                poly.mul(poly.mul(a, b), _L),
            ),
        )

    def __truediv__(self, other) -> _Elt:
        return self * _lift(other).inverse()

    def reduced(self) -> _Elt:
        """The same element with no common factor of a, b and d, found once (`poly.cofactors`)."""
        if self._lowest is None:
            g, a, b = poly.cofactors(self.a, self.b)
            _, h, d = poly.cofactors(g, self.d)  # h = gcd(a, b) / gcd(a, b, d)
            self._lowest = _Elt(poly.mul(a, h), poly.mul(b, h), d)
        return self._lowest

    def __pow__(self, e: int) -> _Elt:
        out, base = _Elt([1]), self
        while e:  # square and multiply
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out


def _lift(x) -> _Elt:
    return x if isinstance(x, _Elt) else _Elt([x])


_Z = _Elt([0, 1])
_R = _Elt([], [1])
# (z + z^2 r + r^2) / (z^2 + z - 1): r^(m - 1) times it is the row of paths
# staying above y = -m less the zigzag total (`above_line_row`)
_LINE = (_Z + _Z**2 * _R + _R**2) / (_Z**2 + _Z - 1)


def _expand(x: _Elt, count: int, low: int = 0) -> list[int]:
    """The first count coefficients of the power series r^low x.

    x = (a + b r) / d in lowest terms, so the numerator is a r^low + b r^(low + 1).
    """
    if count <= 0:
        return []
    x = x.reduced()
    k = poly.valuation(x.d)
    width = count + k
    num = [0] * width
    for p, j, power in zip((x.a, x.b), (low, low + 1), _root_powers(low, width)):
        v = 3 * j  # the valuation of r^j: only its terms from z^v on are added
        power = power[v:] if j else [1]
        for i, c in enumerate(p[: max(width - v, 0)]):
            if c:  # add c z^i r^j, a row at a time
                num[i + v : i + v + len(power)] = map(
                    add, num[i + v : i + v + len(power)], map(mul, repeat(c), power)
                )
    if any(num[:k]):
        raise ArithmeticError(f"expected the first {k} coefficients to vanish")
    return poly.divide(num[k:], x.d[k:], count)


@_stored
def zigzag_total_row(count: int) -> list[int]:
    """All zigzag paths by size: (1 + z + z^2)/(1 - z - z^2)."""
    return _expand((1 + _Z + _Z**2) / (1 - _Z - _Z**2), count)


def _boundary() -> tuple[_Elt, _Elt, _Elt]:
    """(up, alt1, high): the boundary series every per-altitude row is built from.

    up = r (z - 1) / (z^3 (r z^2 + z - 1)) is the axis-up boundary series,
    alt1 = (r^2 + z r + 2 z^2 r up) / z^2 the altitude-1 series and
    high = (1 + z^2 alt1) / z^2, which r^(k - 1) takes to the altitude-k
    series for k >= 2.  Built once per process.
    """
    if "boundary" not in _memo:
        up = _R * (_Z - 1) / (_Z**3 * (_R * _Z**2 + _Z - 1))
        lifted = _R**2 + _Z * _R + 2 * _Z**2 * _R * up
        _memo["boundary"] = up, lifted / _Z**2, (1 + lifted) / _Z**2
    return _memo["boundary"]


@_stored
def zigzag_nonneg_row(count: int) -> list[int]:
    """Zigzag paths ending at altitude >= 0, by size."""
    up, alt1, high = _boundary()
    tail = high * _R / (1 - _R)
    return _expand(2 * up - 1 + alt1 + tail, count)


def zigzag_altitude_row(k: int, count: int) -> list[int]:
    """Zigzag paths ending at altitude k, by size (the counts are symmetric in k).

    2 up - 1 on the axis, alt1 at |k| = 1 and r^(|k| - 1) high above that,
    whose valuation 3|k| - 5 makes a row of fewer sizes all zeros.  With
    high = (a + b r) / d, that row is (a r^(|k| - 1) + b r^|k|) / d: O(count)
    steps for every k.
    """
    k = abs(k)
    if k == 0:
        return _zigzag_axis_row(count)
    if k == 1:
        return _zigzag_alt1_row(count)
    if count <= 3 * k - 5:
        return [0] * count
    return _expand(_boundary()[2], count, k - 1)


@_stored
def _zigzag_axis_row(count: int) -> list[int]:
    return _expand(2 * _boundary()[0] - 1, count)


@_stored
def _zigzag_alt1_row(count: int) -> list[int]:
    return _expand(_boundary()[1], count)


@_stored
def zigzag_altitude_sum_row(count: int) -> list[int]:
    """Sum of final altitudes over zigzag paths ending at altitude >= 0."""
    _, alt1, high = _boundary()
    tail = high * (2 * _R - _R**2) / (1 - _R) ** 2
    return _expand(alt1 + tail, count)


@_stored
def zigzag_primitive_row(count: int) -> list[int]:
    """Zigzag axis-enders touching the x-axis only at the ends, by size.

    (2 z^5 r + 2 z^4 - 2 z^3 - 3 z r + 3 r) / (r (1 - z)).
    """
    num = 2 * _Z**5 * _R + 2 * _Z**4 - 2 * _Z**3 - 3 * _Z * _R + 3 * _R
    return _expand(num / (_R * (1 - _Z)), count)


@_stored
def above_axis_row(count: int) -> list[int]:
    """Zigzag paths staying weakly above the x-axis, by size.

    Summing the per-altitude boundary expressions telescopes to
    root (1 + z + z^2) / (z^3 (1 - root)).
    """
    return _expand(_R * (1 + _Z + _Z**2) / (_Z**3 * (1 - _R)), count)


@_stored
def above_axis_altitude_sum_row(count: int) -> list[int]:
    """Sum of final altitudes over zigzag paths staying weakly above the axis.

    Telescoped form: root (z^2 + 2z + root - z*root) / (z^3 (1 - root)^2).
    """
    inner = _Z**2 + 2 * _Z + _R - _Z * _R
    return _expand(_R * inner / (_Z**3 * (1 - _R) ** 2), count)


def above_line_row(m: int, count: int) -> list[int]:
    """Zigzag paths staying weakly above y = -m, by size (m >= 0).

    (z r^(m - 1) + z^2 r^m + r^(m + 1) - 1 - z - z^2) / (z^2 + z - 1) is the
    zigzag total plus r^(m - 1) _LINE: O(count) steps for every m.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if count <= 0:
        return []
    # no path of these sizes goes below -reach(count - 1): a deeper line gives the same row
    m = min(m, reach(count - 1, True))
    if m == 0:
        return above_axis_row(count)
    return list(map(add, zigzag_total_row(count), _expand(_LINE, count, m - 1)))


# -- grand (non-zigzag) rows ----------------------------------------------------

# 1/(1 - 2z - 2z^2): a(n) = 2 a(n - 1) + 2 a(n - 2)
_GRAND_TOTAL = (((1,), (-2,), (-2,)), (1, 2))

# Paths ending on the axis: order 7, degree 6,
# p_0(n) = 2 n (n - 2) (2n - 3) (575 n^3 - 6448 n^2 + 23637 n - 28324).
_GRAND_AXIS = (
    (
        (0, -339888, 680180, -521590, 191720, -33842, 2300),
        (-442080, 1483896, -1932900, 1243480, -417780, 69984, -4600),
        (-1382592, 4118288, -4830296, 2859456, -902864, 144568, -9200),
        (3790080, -10633368, 11768514, -6612157, 1995679, -307659, 18975),
        (-2404032, 7116544, -7918060, 4373142, -1284944, 192210, -11500),
        (-4612800, 12423952, -12965688, 6812152, -1919716, 277144, -16100),
        (92160, -129024, 66368, -14896, 1232),
        (-844800, 2222240, -2246296, 1134748, -305484, 41892, -2300),
    ),
    (1, 0, 2, 0, 8, 6, 44),
)

# Paths ending at altitude 1: order 7, degree 6,
# p_0(n) = 2 (n - 2) (2n + 1) (575 n^4 - 6344 n^3 + 24497 n^2 - 38320 n + 19520).
_GRAND_ALT1 = (
    (
        (-78080, 36160, 210012, -274886, 133752, -28826, 2300),
        (-81824, 549336, -937568, 743688, -301624, 59952, -4600),
        (357248, 142240, -1434992, 1483984, -635560, 124504, -9200),
        (-159392, -1964336, 4532114, -3720163, 1439271, -266277, 18975),
        (-491936, 2481512, -3830632, 2684254, -952892, 167130, -11500),
        (52704, 2675800, -5338660, 3973048, -1411992, 242032, -16100),
        (-94848, 160864, -93424, 22400, -1904),
        (5760, 482048, -931000, 668692, -227244, 36876, -2300),
    ),
    (0, 0, 1, 2, 6, 12, 33),
)

# Sum of final altitudes over paths ending at y > 0: order 8, degree 4,
# p_0(n) = 2 (n - 1) (2n - 1) (330731 n^2 - 2629274 n + 3972518).
_GRAND_ALTITUDE_SUM = (
    (
        (7945036, -29093656, 32327178, -12501482, 1322924),
        (81615630, -114782380, 40993106, -1265880, -403104),
        (-189140608, 369871514, -297322592, 97655024, -9777184),
        (-270198180, 229088205, -24281965, -14433035, 1943147),
        (1165956240, -1432488238, 690734339, -149511633, 11888018),
        (-542777528, 1135679512, -853952976, 235530428, -20474188),
        (-574890304, 1024580224, -683439584, 179308480, -15699208),
        (-14555904, 71872016, -65627344, 16728612, -1322924),
        (-119395296, 190930344, -117626620, 28310036, -2242744),
    ),
    (0, 2, 5, 20, 56, 180, 516, 1552),
)

# The algebraic equations sum_i c_i(z) a^i = 0 of the axis and altitude-sum
# generating functions a(z): entry i lists c_i, constant term first.  Each is
# the one vanishing factor, of degree 4 in a, of the resultants that
# eliminate the two large grand kernel roots (found and checked in the
# tests); `verify` evaluates it on its row.
_GRAND_AXIS_EQUATION = (
    (0, 0, 0, 1),
    (),
    (-4, 24, -48, 30, 24, -40, 0, 8),
    (),
    (4, -24, 32, 65, -232, 216, 96, -248, 96, 96, 0, 16),
)

_GRAND_ALTITUDE_SUM_EQUATION = (
    (0, 0, 0, 16, -48, 68, -16, -24, 20, 24, 8, 1),
    (),
    (0, -4, 16, 72, -504, 912, -168, -1410, 1392, 728, -1136, -64, 704, 480, 192, 32),
    (),
    (
        4, -56, 288, -511, -848, 4840, -5072, -7216, 18560, -1952,
        -25664, 13920, 20224, -14464, -11008, 7424, 7168, 2560, 1024, 256,
    ),
)


# Paths ending at altitude k, a mixed recurrence in the size n and k:
#
#   2(k + 2n) g(n, k) = 2(2n + 2 - k) g(n, k-2)
#                     - 8n g(n-1, k) + 8n g(n-1, k-2)
#                     - 3(k - 1) g(n-1, k-1) - 4(k - 1) g(n-2, k-1)
#                     + (k - n) g(n-3, k) + (k + n - 2) g(n-3, k-2)
#
# for every n and k, with g = 0 at negative n.  Written as
# sum c_ij(n, k) g(n - i, k - j) = 0, each entry is ((i, j), c_ij) with
# c_ij = (constant, n coefficient, k coefficient), the shift (0, 0) first.
# Its divisor 2(k + 2n) is positive for k >= 1; at k = 1 the g(n, ·) terms
# cancel by g(n, -1) = g(n, 1), so the altitude-1 row has its own recurrence.
_GRAND_MIXED = (
    ((0, 0), (0, 4, 2)),
    ((0, 2), (-4, -4, 2)),
    ((1, 0), (0, 8, 0)),
    ((1, 1), (-3, 0, 3)),
    ((1, 2), (0, -8, 0)),
    ((2, 1), (-4, 0, 4)),
    ((3, 0), (0, 1, -1)),
    ((3, 2), (2, -1, -1)),
)


def _halves(row: list[int], what: str) -> list[int]:
    out = []
    for n, v in enumerate(row):
        q, rem = divmod(v, 2)
        if rem:
            raise ArithmeticError(f"{what} term {n} is odd")
        out.append(q)
    return out


@_resumed
def grand_total_row(count: int, kept=()) -> list[int]:
    """All grand paths by size: 1/(1 - 2z - 2z^2)."""
    return _continued(_GRAND_TOTAL, count, kept)


@_resumed
def grand_axis_row(count: int, kept=()) -> list[int]:
    """Grand paths ending on the axis, by size."""
    return _continued(_GRAND_AXIS, count, kept)


@_resumed
def grand_altitude_sum_row(count: int, kept=()) -> list[int]:
    """Sum of final altitudes over grand paths ending at y > 0, by size."""
    return _continued(_GRAND_ALTITUDE_SUM, count, kept)


def _next_altitude(k: int, below: list[int], two_below: list[int]) -> list[int]:
    """Row k >= 2 of grand paths by size, from rows k - 1 and k - 2.

    Each term unrolls `_GRAND_MIXED` with one checked division.  A path of
    size n reaches at most altitude 2n, so the row starts with ceil(k / 2)
    zeros.
    """
    out = [0] * ((k + 1) // 2)
    rows = {0: out, 1: below, 2: two_below}
    (_, lead), *rest = _GRAND_MIXED
    taps = [(i, a + c * k, b, rows[j]) for (i, j), (a, b, c) in rest]
    for n in range(len(out), len(below)):
        acc = 0
        for i, a, b, row in taps:
            if i <= n:
                acc -= (a + b * n) * row[n - i]
        q, rem = divmod(acc, lead[0] + lead[1] * n + lead[2] * k)
        if rem:
            raise ArithmeticError(f"altitude {k} term {n} is not an integer")
        out.append(q)
    return out


def grand_altitude_row(k: int, count: int) -> list[int]:
    """Grand paths ending at altitude k, by size (the counts are symmetric in k).

    The axis and altitude-1 rows unroll their P-recurrences; each row above
    them takes O(count) steps of the mixed recurrence in `_next_altitude`.
    """
    k = abs(k)
    if count <= (k + 1) // 2:  # too short to reach altitude k
        return [0] * max(count, 0)
    if k == 0:
        return grand_axis_row(count)
    below = _grand_alt1_row(count)
    if k >= 2:
        two_below = grand_axis_row(count)
        for j in range(2, k + 1):
            two_below, below = below, _next_altitude(j, below, two_below)
    return below


@_resumed
def _grand_alt1_row(count: int, kept=()) -> list[int]:
    return _continued(_GRAND_ALT1, count, kept)


def grand_nonneg_row(count: int) -> list[int]:
    """Grand paths ending at y >= 0: (total + axis) / 2 by the y -> -y symmetry."""
    both = map(add, grand_total_row(count), grand_axis_row(count))
    return _halves(list(both), "total + axis")


def grand_positive_row(count: int) -> list[int]:
    """Grand paths ending at y > 0: (total - axis) / 2."""
    both = map(sub, grand_total_row(count), grand_axis_row(count))
    return _halves(list(both), "total - axis")
