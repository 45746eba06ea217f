"""Truncated Laurent series with exact rational coefficients.

A LaurentSeries is a coefficient window [valuation, order) plus an implicit
O(x**order) error term; order None means the series is an exact Laurent
polynomial (all coefficients outside the window are exactly zero).  Every
operation propagates the largest order that remains exact, so results never
silently invent or drop coefficients — asking for a coefficient at or past
the truncation order is an error, not a zero.

Coefficients are integer numerators `nums` over one positive denominator
`den` (FLINT's fmpq_poly layout), kept canonical: gcd(den, *nums) is 1 and
leading zeros are stripped (trailing ones too when exact), so equal series
are structurally equal.  Rationals are converted once, at construction; the
arithmetic runs on ints and normalises once per result.

The variable is abstract.  The grand-knight engine uses series in w with
w**2 = z (the kernel radicals need half-integer powers of z); the zigzag
engine uses ordinary series in z.  Division and square root follow the
truncated-Newton/long-division schemes and are exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from typing import Iterable, Mapping

Rat = int | Fraction


def _min_order(*orders: int | None) -> int | None:
    finite = [o for o in orders if o is not None]
    return min(finite) if finite else None


def _make(valuation: int, nums: list[int], den: int, order: int | None) -> LaurentSeries:
    """sum(nums[i] / den * x**(valuation + i)), canonical; den > 0, nums not mutated."""
    lo, hi = 0, len(nums)
    while lo < hi and not nums[lo]:
        lo += 1
    valuation += lo
    if order is None:
        while hi > lo and not nums[hi - 1]:
            hi -= 1
    elif order - valuation < hi - lo:
        raise ValueError("coefficient window extends past the stated order")
    nums = nums[lo:hi] if lo or hi < len(nums) else nums
    if not nums:
        valuation = order if order is not None else 0
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [n // g for n in nums], den // g
    s = object.__new__(LaurentSeries)
    s.valuation, s.nums, s.den, s.order = valuation, nums, den, order
    return s


def _convolve(xs: list[int], ys: list[int], n: int) -> list[int]:
    """First n coefficients of the product of two integer sequences."""
    if len(xs) > len(ys):
        xs, ys = ys, xs
    out = [0] * n
    for i, x in enumerate(xs[:n]):
        if x:  # add x times the longer factor, shifted by i, in one C-level pass
            t = min(len(ys), n - i)
            out[i : i + t] = map(add, out[i : i + t], map(mul, ys[:t], repeat(x)))
    return out


class LaurentSeries:
    __slots__ = ("valuation", "nums", "den", "order")

    def __init__(self, valuation: int, coeffs: Iterable[Rat], order: int | None):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        s = _make(valuation, [c.numerator * (den // c.denominator) for c in cs], den, order)
        self.valuation, self.nums, self.den, self.order = s.valuation, s.nums, s.den, s.order

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, terms: Mapping[int, Rat]) -> LaurentSeries:
        """Exact Laurent polynomial, e.g. from_poly({2: 1}) for x**2."""
        terms = {e: c for e, c in terms.items() if c != 0}
        if not terms:
            return cls(0, [], None)
        lo, hi = min(terms), max(terms)
        return cls(lo, [terms.get(i, 0) for i in range(lo, hi + 1)], None)

    @classmethod
    def zero(cls, order: int | None = None) -> LaurentSeries:
        return _make(order if order is not None else 0, [], 1, order)

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> list[Fraction]:
        """The coefficient window as Fractions (a fresh list on every read)."""
        return [Fraction(n, self.den) for n in self.nums]

    def is_zero(self) -> bool:
        """True if every known coefficient is zero (to the stated order)."""
        return not self.nums

    def coefficient(self, exponent: int) -> Fraction:
        if self.order is not None and exponent >= self.order:
            raise ValueError(
                f"coefficient of x**{exponent} requested but series is only "
                f"exact below order {self.order}"
            )
        i = exponent - self.valuation
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def numerators(self, lo: int, hi: int) -> list[int]:
        """Numerators over `den` of x**lo .. x**(hi-1); no check against the order."""
        i, j = lo - self.valuation, hi - self.valuation
        head = [0] * max(min(j, 0) - i, 0)
        tail = [0] * max(j - max(i, len(self.nums)), 0)
        return head + self.nums[max(i, 0) : max(j, 0)] + tail

    def truncate(self, order: int) -> LaurentSeries:
        if self.order is not None and order > self.order:
            raise ValueError("cannot extend a truncated series")
        keep = max(order - self.valuation, 0)
        return _make(self.valuation, self.nums[:keep], self.den, order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        mine = (self.valuation, self.den, self.nums, self.order)
        return mine == (other.valuation, other.den, other.nums, other.order)

    def __hash__(self) -> int:
        return hash((self.valuation, tuple(self.nums), self.den, self.order))

    def __repr__(self) -> str:
        head = ", ".join(
            f"{Fraction(n, self.den)}*x^{self.valuation + i}"
            for i, n in enumerate(self.nums[:4])
        )
        if len(self.nums) > 4:
            head += ", ..."
        tail = "" if self.order is None else f" + O(x^{self.order})"
        return f"<LaurentSeries {head or '0'}{tail}>"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentSeries | Rat) -> LaurentSeries:
        other = _coerce(other)
        order = _min_order(self.order, other.order)
        terms = [s for s in (self, other) if not s.is_zero()]
        if not terms:
            return LaurentSeries.zero(order)
        lo = min(s.valuation for s in terms)
        hi = _min_order(max(s.valuation + len(s.nums) for s in terms), order)
        den = math.lcm(*(s.den for s in terms))
        out = [0] * (hi - lo)
        for s in terms:
            nums = s.nums[: max(hi - s.valuation, 0)]
            if s.den != den:
                nums = list(map(mul, nums, repeat(den // s.den)))
            i = s.valuation - lo
            out[i : i + len(nums)] = map(add, out[i : i + len(nums)], nums)
        return _make(lo, out, den, order)

    __radd__ = __add__

    def __neg__(self) -> LaurentSeries:
        return _make(self.valuation, [-n for n in self.nums], self.den, self.order)

    def __sub__(self, other: LaurentSeries | Rat) -> LaurentSeries:
        return self + (-_coerce(other))

    def __rsub__(self, other: Rat) -> LaurentSeries:
        return _coerce(other) - self

    def __mul__(self, other: LaurentSeries | Rat) -> LaurentSeries:
        if isinstance(other, (int, Fraction)):
            nums = [n * other.numerator for n in self.nums]
            return _make(self.valuation, nums, self.den * other.denominator, self.order)
        a, b = self, other
        # error(a)*lead(b) enters at order_a + val_b, and symmetrically
        if a.is_zero() or b.is_zero():
            if (a.is_zero() and a.order is None) or (b.is_zero() and b.order is None):
                return LaurentSeries(0, [], None)  # exact zero factor
            bounds = []
            for x, y in ((a, b), (b, a)):
                if x.order is None:
                    continue
                # y zero-to-order acts as if its valuation were that order
                bounds.append(x.order + (y.order if y.is_zero() else y.valuation))
            return LaurentSeries.zero(min(bounds))
        order = _min_order(
            None if a.order is None else a.order + b.valuation,
            None if b.order is None else b.order + a.valuation,
        )
        v = a.valuation + b.valuation
        n = len(a.nums) + len(b.nums) - 1
        if order is not None:
            n = min(n, order - v)
        return _make(v, _convolve(a.nums, b.nums, n), a.den * b.den, order)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentSeries:
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentSeries.from_poly({0: 1})
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self, order: int | None = None) -> LaurentSeries:
        """Multiplicative inverse, exact to the propagated relative order.

        The recurrence h_n = -(g_1 h_(n-1) + ... + g_n h_0) / g_0 on the numerators
        g runs on ints over one denominator, grown only when a division is inexact.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of a series that is zero to its order")
        rel = self._relative_order(order, "inverse")
        g, lead = self.nums, self.nums[0]
        q = math.gcd(self.den, lead) * (1 if lead > 0 else -1)
        out, den = [self.den // q], lead // q  # h_0 = self.den / g_0 in lowest terms
        rg, last = g[::-1], len(g) - 1
        for n in range(1, rel):
            t = min(n, last)
            s = -sum(map(mul, rg[last - t : last], out[n - t : n]))
            h, r = divmod(s, lead)
            if r:  # h_n needs a larger denominator: grow it by the missing factor
                f = abs(lead) // math.gcd(s, lead)
                out, den = [x * f for x in out], den * f
                h = s * f // lead
            out.append(h)
        return _make(-self.valuation, out, den, -self.valuation + rel)

    def __truediv__(self, other: LaurentSeries | Rat) -> LaurentSeries:
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    def divide(self, other: LaurentSeries, order: int | None = None) -> LaurentSeries:
        """self / other with an explicit truncation order for exact divisors."""
        return self * other.inverse(order=order)

    def sqrt(self, order: int | None = None) -> LaurentSeries:
        """Square root by Newton iteration b <- (b + a/b)/2, doubling exact terms.

        Requires an even valuation and a leading coefficient that is the
        square of a rational.
        """
        if self.is_zero():
            raise ValueError("sqrt of a series that is zero to its order")
        if self.valuation % 2:
            raise ValueError(f"sqrt needs an even valuation, got {self.valuation}")
        lead = Fraction(self.nums[0], self.den)
        if lead < 0:
            raise ValueError(f"leading coefficient {lead} is negative")
        rn, rd = math.isqrt(lead.numerator), math.isqrt(lead.denominator)
        if rn * rn != lead.numerator or rd * rd != lead.denominator:
            raise ValueError(f"leading coefficient {lead} is not a rational square")
        rel = self._relative_order(order, "sqrt")
        unit = _make(0, self.nums[:rel], self.nums[0], rel)  # self / lead
        b, exact = _make(0, [1], 1, 1), 1
        while exact < rel:
            exact = min(2 * exact, rel)
            cur = _make(0, b.nums, b.den, exact)
            b = (cur + unit.truncate(exact).divide(cur)) * Fraction(1, 2)
        half_val = self.valuation // 2
        return _make(half_val, [n * rn for n in b.nums], b.den * rd, half_val + rel)

    def derivative(self) -> LaurentSeries:
        """Term-by-term derivative with respect to the series variable."""
        v, order = self.valuation, self.order
        nums = [n * (v + i) for i, n in enumerate(self.nums)]
        return _make(v - 1, nums, self.den, None if order is None else order - 1)

    def _relative_order(self, order: int | None, what: str) -> int:
        """How many terms an inverse or sqrt yields: up to self.order, capped by order."""
        rel = _min_order(None if self.order is None else self.order - self.valuation, order)
        if rel is None:
            raise ValueError(f"{what} of an exact polynomial needs a truncation order")
        return rel


def _coerce(value: LaurentSeries | Rat) -> LaurentSeries:
    if isinstance(value, LaurentSeries):
        return value
    return LaurentSeries.from_poly({0: value})


class RationalGF:
    """A rational generating function num/den with integer coefficients.

    Expansion runs the linear recurrence induced by the denominator, so
    coefficients up to n = 10**5 are cheap.  den[0] must be nonzero; every
    expanded coefficient must come out an integer (asserted), since these
    functions enumerate discrete objects.
    """

    def __init__(self, num: Iterable[int], den: Iterable[int]):
        self.num = tuple(int(c) for c in num)
        self.den = tuple(int(c) for c in den)
        if not self.den or self.den[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")

    def expand(self, count: int) -> list[int]:
        """First `count` series coefficients."""
        num, den = self.num, self.den
        out: list[int] = []
        for n in range(count):
            s = num[n] if n < len(num) else 0
            for j in range(1, min(n, len(den) - 1) + 1):
                s -= den[j] * out[n - j]
            q, r = divmod(s, den[0])
            if r:
                raise ArithmeticError(
                    f"coefficient {n} is not an integer: {Fraction(s, den[0])}"
                )
            out.append(q)
        return out
