"""Binomial-sum closed forms for zigzag path counts.

Everything here evaluates finite sums of binomial products with exact
integer arithmetic.  The binomial convention is zero-extended: binom(n, k)
is 0 whenever k < 0, k > n, or n < 0.  That extension is what keeps the
sums well-defined at boundary indices, so the summation ranges below can be
generous without changing any value.

Parity guards: expressions like (n - i - k)/2 only make sense when the
numerator is even; terms with a half-integer index contribute 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .paths import DOWN, UP


def binom(n: int, k: int) -> int:
    """Binomial coefficient with the zero-extension convention."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def composition_pairs_count(n: int, m: int) -> int:
    """Pairs (X, Y) of {1,2}-compositions of n and m with equal part counts.

    A composition of n with i parts has n - i twos, so contributes
    binom(i, n - i) choices; pairing over the common part count i gives the
    sum below (written for n <= m; the count is symmetric).
    """
    if n < 0 or m < 0:
        return 0
    if n > m:
        n, m = m, n
    total = 0
    for i in range(0, n - (m + 1) // 2 + 1):
        total += binom(n - i, i) * binom(n - i, m - n + i)
    return total


def zigzag_count_one_sided(n: int, k: int) -> int:
    """Zigzag paths of size n, altitude k, starting with a rising step.

    Defined for n = k (mod 2); equals the composition-pair count of the
    half-coordinates.  At (0, 0) this counts the empty path once.  By the
    up/down mirror it also counts the falling-start class.
    """
    if n < 0 or (n - k) % 2:
        return 0
    a, b = (n - abs(k)) // 2, (n + abs(k)) // 2
    if a < 0:
        return 0
    return composition_pairs_count(a, b)


def zigzag_count_closed(n: int, k: int) -> int:
    """Zigzag paths of size n and altitude k, any start direction.

    Same parity: twice the one-sided count (except the lone empty path at
    (0, 0)).  Opposite parity: peel the last step, which lands the prefix
    in one of four same-parity classes.
    """
    if n < 0:
        return 0
    if (n - k) % 2 == 0:
        if (n, k) == (0, 0):
            return 1
        return 2 * zigzag_count_one_sided(n, k)
    return (
        zigzag_count_one_sided(n - 1, k - 2)
        + zigzag_count_one_sided(n - 2, k - 1)
        + zigzag_count_one_sided(n - 1, k + 2)
        + zigzag_count_one_sided(n - 2, k + 1)
    )


def zigzag_total_closed(n: int) -> int:
    """Zigzag paths of size n, any altitude.

    Directions alternate, so a path is its first direction times a
    {1,2}-composition of n; one with i parts has n - i twos.  This is the
    per-altitude sum of zigzag_count_closed collapsed by Vandermonde.
    """
    if n < 0:
        return 0
    if n == 0:
        return 1
    return 2 * sum(binom(i, n - i) for i in range((n + 1) // 2, n + 1))


def zigzag_nonneg_closed(n: int) -> int:
    """Zigzag paths of size n ending at altitude >= 0.

    The up/down mirror pairs altitude k with -k, so this is half of the
    total plus the paths on the axis.
    """
    twice = zigzag_total_closed(n) + zigzag_count_closed(n, 0)
    if twice % 2:
        raise ArithmeticError(f"total plus axis count is odd at n = {n}")
    return twice // 2


def zigzag_step_count(n: int, k: int, i: int, first_dir: int) -> int:
    """Zigzag paths of size n, altitude k, exactly i steps, given start.

    Zero whenever i has the wrong parity (i = n - k mod 2 is forced) or any
    derived step count goes out of range.  For even i the two start
    directions count equally.  Convention: (n, k, i) = (0, 0, 0) counts the
    empty path once for either direction.
    """
    if first_dir not in (UP, DOWN):
        raise ValueError("first_dir must be UP or DOWN")
    if n < 0 or i < 0 or (i - (n - k)) % 2:
        return 0
    if i % 2 == 0:
        if (n - i - k) % 2:
            return 0
        half = i // 2
        return binom(half, (n - i - k) // 2) * binom(half, (n - i + k) // 2)
    if first_dir == UP:
        return binom((i + 1) // 2, (n - k - i) // 2 + 1) * binom(
            (i - 1) // 2, (n + k - i) // 2 - 1
        )
    return binom((i - 1) // 2, (n - k - i) // 2 - 1) * binom(
        (i + 1) // 2, (n + k - i) // 2 + 1
    )


def expected_steps(n: int, k: int) -> Fraction:
    """Exact expected number of steps over zigzag paths ending at (n, k).

    Raises ValueError when no such path exists.  Step counts range over
    0..n (every step advances x by at least 1).
    """
    num = 0
    den = 0
    for i in range(n + 1):
        c = zigzag_step_count(n, k, i, UP) + zigzag_step_count(n, k, i, DOWN)
        num += i * c
        den += c
    if den == 0:
        raise ValueError(f"no zigzag path ends at ({n}, {k}); expectation undefined")
    return Fraction(num, den)
