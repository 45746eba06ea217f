"""Truncated Laurent series with exact integer coefficients.

A LaurentSeries is a coefficient window [valuation, order) plus an implicit
O(x**order) error term; order None means the series is an exact Laurent
polynomial (all coefficients outside the window are exactly zero).  Every
operation propagates the largest order that remains exact, so results never
silently invent or drop coefficients — asking for a coefficient at or past
the truncation order is an error, not a zero.

Coefficients are Python ints, kept canonical: leading zeros are stripped
(trailing ones too when exact), so equal series are structurally equal.
Sums and products of integer series are integer series.

Division is long division, one loop for every quotient: each quotient
coefficient is one inner product of the divisor with the coefficients
already found, so a quotient costs one quadratic pass and a short divisor
a short one.  A quotient stays in the integers because the divisor's lead
must be +1 or -1; any other lead raises ArithmeticError at the first
coefficient, 1/lead, instead of rounding.  The product (`_convolve`) is a
separate loop, so that multiplying a quotient back checks the division.

The variable is abstract; the zigzag kernel series of `series`, which
`gf --name zigzag-nonneg` prints, are ordinary series in z.  The module
holds `LaurentSeries` alone and imports no other module of the package:
its arithmetic checks the nonneg row that `recurrences` builds on `poly`.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, index, mul
from typing import Iterable, Mapping


def _min_order(*orders: int | None) -> int | None:
    finite = [o for o in orders if o is not None]
    return min(finite) if finite else None


def _make(valuation: int, coeffs: list[int], order: int | None) -> LaurentSeries:
    """sum(coeffs[i] * x**(valuation + i)), canonical; coeffs not mutated."""
    lo, hi = 0, len(coeffs)
    while lo < hi and not coeffs[lo]:
        lo += 1
    if order is None:
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
    if lo == hi:  # zero to the order, at any valuation: its valuation is the order
        valuation, coeffs = (0 if order is None else order), []
    else:
        valuation += lo
        if order is not None and order - valuation < hi - lo:
            raise ValueError("coefficient window extends past the stated order")
        coeffs = coeffs[lo:hi] if lo or hi < len(coeffs) else coeffs
    s = object.__new__(LaurentSeries)
    s.valuation, s.coeffs, s.order = valuation, coeffs, order
    return s


def _convolve(xs: list[int], ys: list[int], n: int) -> list[int]:
    """First n coefficients of the product of two integer sequences."""
    # not poly.mul: LaurentSeries checks the rows built on poly, so it keeps its own product
    if len(xs) > len(ys):
        xs, ys = ys, xs
    out = [0] * n
    for i, x in enumerate(xs[:n]):
        if x:  # add x times the longer factor, shifted by i, in one C-level pass
            t = min(len(ys), n - i)
            out[i : i + t] = map(add, out[i : i + t], map(mul, ys[:t], repeat(x)))
    return out


class LaurentSeries:
    """sum(coeffs[i] * x**(valuation + i)) + O(x**order).

    `coeffs` is the window itself, not a copy: read it, do not mutate it.
    """

    __slots__ = ("valuation", "coeffs", "order")

    def __init__(self, valuation: int, coeffs: Iterable[int], order: int | None):
        s = _make(valuation, [index(c) for c in coeffs], order)
        self.valuation, self.coeffs, self.order = s.valuation, s.coeffs, s.order

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_poly(cls, terms: Mapping[int, int]) -> LaurentSeries:
        """Exact Laurent polynomial, e.g. from_poly({2: 1}) for x**2."""
        terms = {e: c for e, c in terms.items() if c != 0}
        if not terms:
            return cls(0, [], None)
        lo, hi = min(terms), max(terms)
        return cls(lo, [terms.get(i, 0) for i in range(lo, hi + 1)], None)

    @classmethod
    def zero(cls, order: int | None = None) -> LaurentSeries:
        return _make(0, [], order)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        """True if every known coefficient is zero (to the stated order)."""
        return not self.coeffs

    def coefficient(self, exponent: int) -> int:
        if self.order is not None and exponent >= self.order:
            raise ValueError(
                f"coefficient of x**{exponent} requested but series is only "
                f"exact below order {self.order}"
            )
        i = exponent - self.valuation
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def window(self, lo: int, hi: int) -> list[int]:
        """Coefficients of x**lo .. x**(hi-1); no check against the order."""
        i, j = lo - self.valuation, hi - self.valuation
        head = [0] * max(min(j, 0) - i, 0)
        tail = [0] * max(j - max(i, len(self.coeffs)), 0)
        return head + self.coeffs[max(i, 0) : max(j, 0)] + tail

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentSeries | int) -> LaurentSeries:
        other = _coerce(other)
        order = _min_order(self.order, other.order)
        terms = [s for s in (self, other) if s.coeffs]
        if not terms:
            return LaurentSeries.zero(order)
        lo = min(s.valuation for s in terms)
        hi = _min_order(max(s.valuation + len(s.coeffs) for s in terms), order)
        out = [0] * (hi - lo)  # empty when every term starts past the order
        for s in terms:
            cs = s.coeffs[: max(hi - s.valuation, 0)]
            i = s.valuation - lo
            out[i : i + len(cs)] = map(add, out[i : i + len(cs)], cs)
        return _make(lo, out, order)

    def __neg__(self) -> LaurentSeries:
        return _make(self.valuation, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: LaurentSeries | int) -> LaurentSeries:
        return self + (-_coerce(other))

    def __mul__(self, other: LaurentSeries | int) -> LaurentSeries:
        if isinstance(other, int):
            return _make(self.valuation, [c * other for c in self.coeffs], self.order)
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
        n = len(a.coeffs) + len(b.coeffs) - 1
        if order is not None:
            n = min(n, order - v)
        return _make(v, _convolve(a.coeffs, b.coeffs, n), order)

    __rmul__ = __mul__

    def divide(self, other: LaurentSeries, order: int | None = None) -> LaurentSeries:
        """self / other by long division, exact to the propagated order.

        The divisor's relative order is its own (order - valuation), capped
        by `order`, which an exact divisor needs.  The quotient has the
        valuation, window and order of self times the inverse of other:
        exact to min(order(self) - val(other), val(self) - val(other) + rel).
        Its coefficients come in one pass, q_k = (a_k - (d_1 q_(k-1) + ...
        + d_k q_0)) / d_0, which stays in the integers because the lead d_0
        must be +1 or -1, so that dividing by it is multiplying by it.
        """
        if other.is_zero():
            raise ZeroDivisionError("inverse of a series that is zero to its order")
        rel = _min_order(None if other.order is None else other.order - other.valuation, order)
        if rel is None:
            raise ValueError("inverse of an exact polynomial needs a truncation order")
        lead = other.coeffs[0]
        if lead not in (1, -1):
            raise ArithmeticError(
                f"inverse: coefficient of x**{-other.valuation} is 1/{lead}, not an integer"
            )
        if rel < 1:
            raise ValueError(f"division needs a relative order of at least 1, got {rel}")
        bound = None if self.order is None else self.order - other.valuation
        if self.is_zero():  # 1/other's own error enters past the bound
            return LaurentSeries.zero(bound)
        v = self.valuation - other.valuation
        top = _min_order(bound, v + rel)
        n = top - v
        a = self.coeffs[:n] + [0] * (n - len(self.coeffs))
        rd = other.coeffs[1:n][::-1]  # the d_i it reads, reversed to pair with q in order
        last, q = len(rd), []
        for k, ak in enumerate(a):
            t = min(k, last)
            ak -= sum(map(mul, rd[last - t :], q[k - t :]))
            q.append(ak if lead == 1 else -ak)
        return _make(v, q, top)


def _coerce(value: LaurentSeries | int) -> LaurentSeries:
    if isinstance(value, LaurentSeries):
        return value
    return LaurentSeries.from_poly({0: value})
