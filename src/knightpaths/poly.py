"""Integer polynomials, checked power-series division and rational generating functions.

A polynomial is a list of ints, lowest degree first; `add` and `sub` trim
trailing zeros, and `mul` of trimmed factors is trimmed.  Every division is
checked: a remainder raises ArithmeticError, nothing is rounded.  Both
engines divide their fractions by the gcd (`cofactors`) to expand them in
lowest terms.
`recurrences` and `transfer` share this module; the DP, the closed forms and
`LaurentSeries`, which check those engines, do not import it.
"""

from __future__ import annotations

import functools
import math
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


def mul_low(p: Poly, q: Poly, n: int) -> Poly:
    """p q mod z^n as exactly n coefficients, zeros included.

    No product above z^(n - 1) is formed, and none with a zero factor: the
    root's powers that `verify` multiplies are odd or even series.
    """
    out = [0] * n
    taps = [(j, e) for j, e in enumerate(q[:n]) if e]
    for i, c in enumerate(p[:n]):
        if c:
            for j, e in taps:
                if i + j >= n:
                    break
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


def valuation(p: Poly) -> int:
    """The lowest degree of a nonzero coefficient of p (p nonzero)."""
    return next(i for i, c in enumerate(p) if c)


def cofactors(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, p / g, q / g) for g = gcd(p, q) in Z[z], lead positive; each division is checked exact.

    The common z-power and integer content split off first.  The primitive
    parts go to `_heuristic_gcd`, then to `_remainder_gcd` if it fails.
    gcd(p, 0) is p up to sign, and gcd(0, 0) is 0.
    """
    p, q = trim(list(p)), trim(list(q))
    if not p or not q:  # gcd(f, 0) = +-f
        f = p or q
        unit = -1 if f and f[-1] < 0 else 1
        return shift(f, 0, unit), p and [unit], q and [unit]
    vp, vq, sp, sq = valuation(p), valuation(q), _content(p), _content(q)
    content, k = math.gcd(sp, sq), min(vp, vq)
    pp, qq = [c // sp for c in p[vp:]], [c // sq for c in q[vq:]]
    found = _heuristic_gcd(pp, qq)
    if found is None:
        g = _remainder_gcd(pp, qq)
        found = g, divexact(pp, g), divexact(qq, g)
    g, pc, qc = found
    return shift(g, k, content), shift(pc, vp - k, sp // content), shift(qc, vq - k, sq // content)


def _content(p: Poly) -> int:
    """The gcd of p's coefficients, signed as its leading coefficient."""
    return math.gcd(*p) if p and p[-1] > 0 else -math.gcd(*p)


def _primitive(p: Poly) -> Poly:
    """p over its content, with a positive leading coefficient."""
    g = _content(p)
    return [c // g for c in p]


def _heuristic_gcd(p: Poly, q: Poly) -> tuple[Poly, Poly, Poly] | None:
    """(g, p / g, q / g), g = gcd(p, q), for primitive p and q with nonzero constant terms; or None.

    Char, Geddes and Gonnet (J. Symb. Comp. 7, 1989): for x > 2 min(|p|, |q|)
    + 2, the integer gcd of p(x) and q(x), read as digits in base x, has the
    gcd as its primitive part if that divides both (checked by `divexact`).
    """
    x = 2 * min(max(map(abs, p)), max(map(abs, q))) + 29
    for _ in range(6):
        h = math.gcd(*(functools.reduce(lambda v, c: v * x + c, f[::-1]) for f in (p, q)))
        g = []
        while h:
            g.append((h + x // 2) % x - x // 2)
            h = (h - g[-1]) // x
        try:
            g = _primitive(g)
            return g, divexact(p, g), divexact(q, g)
        except ArithmeticError:
            x = x * 73794 // 27011  # a larger x, about 2.73 times
    return None


def _remainder_gcd(p: Poly, q: Poly) -> Poly:
    """gcd(p, q) of primitive p and q by a primitive remainder sequence (Knuth, TAOCP 2, 4.6.1).

    Each pseudo-remainder, lead(q)^(deg p - deg q + 1) p mod q, is divided by its content.
    """
    if len(p) < len(q):
        p, q = q, p
    while len(q) > 1:
        r, lead, n = list(p), q[-1], len(q) - 1
        for top in range(len(p) - 1, n - 1, -1):
            c = r.pop()
            r = [lead * x for x in r]
            r[top - n :] = map(operator.sub, r[top - n :], [c * e for e in q[:n]])
        p, q = q, _primitive(trim(r))
    return [1] if q else p


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
