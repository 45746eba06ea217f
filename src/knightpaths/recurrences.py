"""Integer coefficient recurrences for the sequences needed at large sizes.

The asymptotic checks compare against exact values at sizes in the
thousands.  These come from code independent of the series engine, so
every asymptotic row has its own exact source: each zigzag-side sequence
here has an integer recurrence driven by the small kernel root, which
itself satisfies

    root = z^3 + (z^2 + z^4) * root + z^3 * root^2,

so everything reduces to integer convolutions.  The unbounded grand-side
sequences come from the O(n^2) dynamic program in counting.grand_row_stats.

All divisions below are exact by construction and are checked.
"""

from __future__ import annotations


def _conv(a: list[int], b: list[int], order: int) -> list[int]:
    n = min(order, len(a) + len(b) - 1) if a and b else 0
    out = [0] * n
    for i, x in enumerate(a):
        if x == 0:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            out[i + j] += x * b[j]
    return out


def _div(num: list[int], den: list[int], order: int) -> list[int]:
    """Series division; den[0] must be +-1 so the result stays integral."""
    d0 = den[0]
    if d0 not in (1, -1):
        raise ValueError("denominator must have a unit constant term")
    out = [0] * order
    for n in range(order):
        s = num[n] if n < len(num) else 0
        for j in range(1, min(n, len(den) - 1) + 1):
            s -= den[j] * out[n - j]
        out[n] = s * d0
    return out


def _add(*arrays: list[int]) -> list[int]:
    n = max(len(a) for a in arrays)
    out = [0] * n
    for a in arrays:
        for i, x in enumerate(a):
            out[i] += x
    return out


def _scale_shift(a: list[int], shift: int, factor: int = 1) -> list[int]:
    return [0] * shift + [factor * x for x in a]


def _shift_down(a: list[int], k: int) -> list[int]:
    if any(x != 0 for x in a[:k]):
        raise ArithmeticError(f"expected the first {k} coefficients to vanish")
    return a[k:]


def small_root_coeffs(order: int) -> list[int]:
    """Coefficients of the small zigzag kernel root (valuation 3)."""
    r = [0] * order
    if order > 3:
        r[3] = 1
    for n in range(4, order):
        acc = (r[n - 2] if n >= 2 else 0) + (r[n - 4] if n >= 4 else 0)
        # (root^2)_{n-3}: both factors have valuation 3
        acc += sum(r[i] * r[n - 3 - i] for i in range(3, n - 5))
        r[n] = acc
    return r


def zigzag_total_row(count: int) -> list[int]:
    """All zigzag paths by size: (1 + z + z^2)/(1 - z - z^2)."""
    return _div([1, 1, 1], [1, -1, -1], count)


def _boundary(order: int) -> tuple[list[int], list[int]]:
    """(small root, axis-up boundary series) to the given order."""
    r = small_root_coeffs(order)
    # boundary = r(z - 1) / (z^3 (r z^2 + z - 1)); both sides shifted by z^3
    num = _shift_down(_add(_scale_shift(r, 1), [-x for x in r]), 3)
    den = _add(_scale_shift(r, 2), [0, 0, 0])
    den[0] -= 1
    den[1] += 1
    return r, _div(num, den, order)


def zigzag_nonneg_row(count: int) -> list[int]:
    """Zigzag paths ending at altitude >= 0, by size."""
    W = count + 10
    r, up_axis = _boundary(W)
    gamma = [2 * x for x in up_axis]
    gamma[0] -= 1
    r2 = _conv(r, r, W)
    r_up = _conv(r, up_axis, W)
    alt1 = _shift_down(_add(r2, _scale_shift(r, 1), _scale_shift(r_up, 2, 2))[:W], 2)
    bundle = _add(r2, _scale_shift(r, 1), _scale_shift(r_up, 2, 2))[:W]
    bundle[0] += 1
    one_minus_r = [-x for x in r]
    one_minus_r[0] += 1
    tail = _div(_shift_down(_conv(bundle, r, W), 2), one_minus_r, W)
    return _add(gamma[:W], alt1[:W], tail)[:count]


def zigzag_altitude_sum_row(count: int) -> list[int]:
    """Sum of final altitudes over zigzag paths ending at altitude >= 0."""
    W = count + 10
    r, up_axis = _boundary(W)
    r2 = _conv(r, r, W)
    r_up = _conv(r, up_axis, W)
    alt1 = _shift_down(_add(r2, _scale_shift(r, 1), _scale_shift(r_up, 2, 2))[:W], 2)
    bundle = _add(r2, _scale_shift(r, 1), _scale_shift(r_up, 2, 2))[:W]
    bundle[0] += 1
    one_minus_r = [-x for x in r]
    one_minus_r[0] += 1
    den2 = _conv(one_minus_r, one_minus_r, W)
    two_r_minus_r2 = _add([2 * x for x in r], [-x for x in r2])[:W]
    tail = _div(_shift_down(_conv(bundle, two_r_minus_r2, W)[:W], 2), den2, W)
    return _add(alt1[:W], tail)[:count]


def above_axis_row(count: int) -> list[int]:
    """Zigzag paths staying weakly above the x-axis, by size.

    Summing the per-altitude boundary expressions telescopes to
    root (1 + z + z^2) / (z^3 (1 - root)).
    """
    W = count + 6
    r = small_root_coeffs(W)
    one_minus_r = [-x for x in r]
    one_minus_r[0] += 1
    num = _conv(_shift_down(r, 3), [1, 1, 1], W)
    return _div(num, one_minus_r, count)


def above_axis_altitude_sum_row(count: int) -> list[int]:
    """Sum of final altitudes over zigzag paths staying weakly above the axis.

    Telescoped form: root (z^2 + 2z + root - z*root) / (z^3 (1 - root)^2).
    """
    W = count + 8
    r = small_root_coeffs(W)
    one_minus_r = [-x for x in r]
    one_minus_r[0] += 1
    den2 = _conv(one_minus_r, one_minus_r, W)
    inner = _add([0, 2, 1], r, [-x for x in _scale_shift(r, 1)])[:W]
    num = _shift_down(_conv(r, inner, W), 3)
    return _div(num, den2, count)


def above_line_row(m: int, count: int) -> list[int]:
    """Zigzag paths staying weakly above y = -m, by size (m >= 0)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return above_axis_row(count)
    W = count + 4
    r = small_root_coeffs(W)
    powers = {0: [1]}
    acc = [1]
    for k in range(1, m + 2):
        acc = _conv(acc, r, W)
        powers[k] = acc
    num = _add(
        _scale_shift(powers[m - 1], 1),
        _scale_shift(powers[m], 2),
        powers[m + 1][:W],
        [-1, -1, -1],
    )[:W]
    return _div(num, [-1, 1, 1], count)
