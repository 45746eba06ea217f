"""Integer polynomials, checked power-series division and rational generating functions.

A polynomial is a list of ints, lowest degree first; `add` and `sub` trim
trailing zeros, and `mul` of trimmed factors is trimmed.  Every division is
checked: a remainder raises ArithmeticError, nothing is rounded.
`recurrences` and `transfer` share this module; the DP, the closed forms and
`LaurentSeries`, which check those engines, do not import it.
"""

from __future__ import annotations

import operator
from typing import Iterable

Poly = list[int]  # integer coefficients, lowest degree first


def trim(p: Poly) -> Poly:
    """p without its trailing zeros, in place."""
    while p and not p[-1]:
        p.pop()
    return p


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def sub(p: Poly, q: Poly) -> Poly:
    out = p + [0] * (len(q) - len(p))
    out[: len(q)] = map(operator.sub, out, q)
    return trim(out)


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):  # on the engines' polynomials this beats a row-at-a-time product
        if c:
            for j, e in enumerate(q):
                out[i + j] += c * e
    return out


def shift(p: Poly, k: int, factor: int = 1) -> Poly:
    """factor * z^k * p."""
    return [0] * k + [factor * c for c in p] if p else []


def divide(num: Poly, den: Poly, count: int) -> list[int]:
    """The first count coefficients of the power series num / den; den[0] != 0.

    Each coefficient is one division by den[0]; the first that leaves a
    remainder raises ArithmeticError, naming its index.
    """
    num = list(num[:count])
    num += [0] * (count - len(num))
    d0, taps = den[0], [(j, c) for j, c in enumerate(den) if c and j]
    out: list[int] = []
    for n in range(count):
        acc = num[n]
        for j, c in taps:
            if j > n:
                break
            acc -= c * out[n - j]
        q, rem = divmod(acc, d0)
        if rem:
            raise ArithmeticError(f"coefficient {n} is not an integer: {acc} / {d0}")
        out.append(q)
    return out


def divexact(num: Poly, den: Poly) -> Poly:
    """num / den, which must divide exactly; raises ArithmeticError otherwise.

    The quotient comes from the low end (`divide`); the top len(den) - 1
    coefficients of num must then agree with den * quotient.
    """
    if not num:
        return []
    last = len(den) - 1
    nq = len(num) - last
    if nq <= 0:
        raise ArithmeticError(f"degree {len(num) - 1} polynomial is not divisible by degree {last}")
    q = divide(num, den, nq)
    for i in range(nq, len(num)):
        j = i - nq + 1  # the lowest power of den that still meets the quotient
        if num[i] != sum(map(operator.mul, den[j : i + 1], reversed(q[max(i - last, 0) : nq]))):
            raise ArithmeticError(f"inexact division: remainder at z^{i}")
    return q


class RationalGF:
    """A rational generating function num/den with integer coefficients.

    Expansion runs the linear recurrence induced by the denominator, so
    coefficients up to n = 10**5 are cheap.  den[0] must be nonzero; every
    expanded coefficient must come out an integer (checked), since these
    functions enumerate discrete objects.
    """

    def __init__(self, num: Iterable[int], den: Iterable[int]):
        self.num = tuple(int(c) for c in num)
        self.den = tuple(int(c) for c in den)
        if not self.den or self.den[0] == 0:
            raise ValueError("denominator needs a nonzero constant term")

    def expand(self, count: int) -> list[int]:
        """First `count` series coefficients."""
        return divide(self.num, self.den, count)
