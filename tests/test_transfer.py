"""Transfer-matrix band engine against the DP."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightpaths import engines, poly, transfer
from knightpaths.counting import (
    ALL,
    NONNEG,
    CountQuery,
    altitude_distributions,
    count_paths,
    count_row,
)
from knightpaths.paths import DOWN, UP, PathConstraints, reach
from knightpaths.verification import _span_row_dp

ORDER = 60


def band_count(size: int, altitude, c: PathConstraints) -> int | None:
    """The gf route's count, which sends every two-sided band to this engine."""
    return engines.count(CountQuery(size, altitude, c), "gf")


def bands(max_span: int, floor: int = 0):
    """(m, M) of every band [-m, M] with m, M >= 0 and span floor..max_span."""
    return [
        (m, M) for m in range(max_span + 1) for M in range(max_span + 1) if floor <= m + M <= max_span
    ]


def dp_rows(n_max: int, c: PathConstraints, altitudes) -> list[list[int]]:
    """DP rows for several altitude filters, from one sweep."""
    dists = list(altitude_distributions(n_max, c))
    rows = []
    for a in altitudes:
        if a == ALL:
            rows.append([sum(d.values()) for d in dists])
        elif a == NONNEG:
            rows.append([sum(v for y, v in d.items() if y >= 0) for d in dists])
        else:
            rows.append([d.get(a, 0) for d in dists])
    return rows


@pytest.mark.parametrize("m,M", [(m, M) for m, M in bands(6, floor=1) if m <= M])
def test_zigzag_band_vs_series_and_dp(m, M):
    """The band's rational series in both orientations against the DP:
    total, y >= 0 and every altitude."""
    for lo, hi in ((m, M), (M, m)):
        c = PathConstraints(zigzag=True, min_y=-lo, max_y=hi)
        altitudes = [ALL, NONNEG, *range(-lo, hi + 1)]
        got = [g.expand(ORDER) for g in transfer.band_gfs(c, altitudes)]
        assert got == dp_rows(ORDER - 1, c, altitudes), (lo, hi)


@pytest.mark.parametrize("m,M", bands(6))
def test_grand_band_vs_dp(m, M):
    c = PathConstraints(min_y=-m, max_y=M)
    altitudes = [ALL, NONNEG, *range(-m, M + 1)]
    got = [g.expand(ORDER) for g in transfer.band_gfs(c, altitudes)]
    assert got == dp_rows(ORDER - 1, c, altitudes)


def test_empty_band_holds_only_the_empty_path():
    for zigzag in (True, False):
        c = PathConstraints(zigzag=zigzag, min_y=0, max_y=0)
        assert transfer.band_gf(c).expand(6) == [1, 0, 0, 0, 0, 0]
        assert [band_count(n, 0, c) for n in range(4)] == [1, 0, 0, 0]


def test_first_and_last_direction_vs_dp():
    for zigzag in (True, False):
        for first in (None, UP, DOWN):
            for last in (None, UP, DOWN):
                c = PathConstraints(zigzag=zigzag, min_y=-2, max_y=3, first_dir=first, last_dir=last)
                altitudes = [ALL, NONNEG, -2, 0, 3]
                got = [g.expand(30) for g in transfer.band_gfs(c, altitudes)]
                assert got == dp_rows(29, c, altitudes), (zigzag, first, last)


@st.composite
def band_queries(draw):
    m, M = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    c = PathConstraints(
        zigzag=draw(st.booleans()),
        min_y=-m,
        max_y=M,
        first_dir=draw(st.sampled_from([None, UP, DOWN])),
        last_dir=draw(st.sampled_from([None, UP, DOWN])),
    )
    altitude = draw(st.one_of(st.sampled_from([ALL, NONNEG]), st.integers(-6, 6)))
    return draw(st.integers(0, 30)), altitude, c


@settings(derandomize=True, deadline=None, max_examples=150)
@given(band_queries())
def test_band_count_matches_dp(query):
    size, altitude, c = query
    assert band_count(size, altitude, c) == count_paths(size, altitude, c)


@pytest.mark.parametrize("zigzag,m,M", [(True, 2, 3), (False, 1, 2)])
def test_large_size_vs_dp(zigzag, m, M):
    c = PathConstraints(zigzag=zigzag, min_y=-m, max_y=M)
    assert transfer.band_gf(c).expand(2001) == count_row(2000, ALL, c)


@pytest.mark.parametrize("zigzag", [True, False])
def test_wide_band_is_clamped_to_the_size(zigzag, monkeypatch):
    """A band far wider than any path of the size costs no more than [-r, r],
    r = reach(n): 2n for grand paths, (n + 5) // 3 for zigzag paths."""
    widths = []
    real = transfer._system
    monkeypatch.setattr(transfer, "_system", lambda c, alts: widths.append(c.max_y - c.min_y) or real(c, alts))
    for size in range(6):
        for altitude in (ALL, NONNEG, 1, -3):
            c = PathConstraints(zigzag=zigzag, min_y=-500, max_y=400, last_dir=DOWN if size % 2 else None)
            assert band_count(size, altitude, c) == count_paths(size, altitude, c), (size, altitude)
    assert max(widths) == (6 if zigzag else 20)


def test_coverage_needs_two_bounds_and_no_steps(monkeypatch):
    def refuse(*args):
        raise AssertionError("transfer.band_gfs was called")

    monkeypatch.setattr(transfer, "band_gfs", refuse)
    one_bound = PathConstraints(zigzag=True, min_y=-1)  # the above-line row answers it
    assert band_count(5, ALL, one_bound) == count_paths(5, ALL, one_bound)
    assert band_count(5, ALL, PathConstraints(max_y=2)) is None
    assert band_count(5, 1, PathConstraints(min_y=-1, max_y=2, steps=3)) is None
    monkeypatch.undo()
    with pytest.raises(ValueError):
        transfer.band_gf(PathConstraints(min_y=-1))
    with pytest.raises(ValueError):
        transfer.band_gf(PathConstraints(min_y=-1, max_y=1), altitude="some")


def test_a_kept_band_fraction_is_a_fresh_elimination_of_its_own_band():
    """`band_gf` keeps one fraction per band and filter: the grand, zigzag and
    directed variants of one band, whose fractions all differ, each get their
    own entry, and a second call returns what `band_gfs` derives afresh."""
    variants = [
        (PathConstraints(zigzag=zigzag, min_y=-2, max_y=3, first_dir=first, last_dir=last), a)
        for zigzag in (False, True)
        for first in (None, UP, DOWN)
        for last in (None, UP, DOWN)
        for a in (ALL, NONNEG)
    ]
    kept = [transfer.band_gf(c, a) for c, a in variants]
    assert len({(gf.num, gf.den) for gf in kept}) == len(variants)
    assert transfer.band_gf.cache_info().currsize == len(variants)
    for (c, a), gf in zip(variants, kept):
        again, (fresh,) = transfer.band_gf(c, a), transfer.band_gfs(c, [a])
        assert again is gf
        assert (gf.num, gf.den, gf.unreduced) == (fresh.num, fresh.den, fresh.unreduced), (c, a)
    assert transfer.band_gf.cache_info().hits == len(variants)


def test_span_exact_row_is_clamped_to_the_sizes(monkeypatch):
    """A span wider than any path of the sizes reads bands no wider than
    [-r, r], r = reach(count - 1), and its row is all zeros."""
    widths = []
    real = transfer._system
    monkeypatch.setattr(transfer, "_system", lambda c, alts: widths.append(c.max_y - c.min_y) or real(c, alts))
    assert transfer.span_exact_row(30, 10) == [0] * 10
    assert max(widths) <= 2 * reach(9, True)


def test_span_exact_row_vs_brute_force(paths_of):
    """Every zigzag path of size n <= 14, grouped by max - min of its heights:
    a count that shares no formula with any engine."""
    n_top = 14
    spans: dict[int, list[int]] = {}
    for n in range(n_top + 1):
        for path in paths_of(n, PathConstraints(zigzag=True)):
            lo, hi = path.heights
            spans.setdefault(hi - lo, [0] * (n_top + 1))[n] += 1
    assert spans[0] == [1] + [0] * n_top  # only the empty path has span 0
    # no path of these sizes spans more than 2 reach; two rows past it must be 0
    widest = 2 * reach(n_top, True)
    assert max(spans) <= widest
    for k in range(1, widest + 3):
        assert transfer.span_exact_row(k, n_top + 1) == spans.get(k, [0] * (n_top + 1)), k
    with pytest.raises(ValueError):
        transfer.span_exact_row(0, 10)


def test_span_exact_row_vs_banded_dp():
    for k in range(1, 7):
        assert transfer.span_exact_row(k, 41) == _span_row_dp(40, k), k


def test_corrupted_entry_fails_the_exact_division():
    rows = transfer._system(PathConstraints(zigzag=True, min_y=-2, max_y=3), [ALL])
    touched = [False] * len(rows)
    transfer._bareiss_step(rows, 0, [1], touched)
    assert len(rows[0][0]) > 1  # the next step divides by a non-constant pivot
    rows[1][3] = poly.sub(rows[1][3], [0, 1])
    with pytest.raises(ArithmeticError):
        transfer._bareiss_step(rows, 1, rows[0][0], touched)


def _value(p, z):
    return sum(c * z**i for i, c in enumerate(p))


def _det(matrix):
    """Determinant of a square integer matrix by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot], det = a[pivot], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


@st.composite
def augmented(draw):
    """[I - T | v1 v2] with T(0) = 0 and many zero entries."""
    n = draw(st.integers(1, 5))
    entries = st.lists(st.integers(-3, 3), max_size=3)
    rows = []
    for i in range(n):
        row = [[0] + draw(entries) if draw(st.booleans()) else [] for _ in range(n)]
        row = [[-c for c in p] for p in row]
        row[i] = [1] + row[i][1:]
        rows.append([poly.trim(p) for p in row] + [poly.trim(draw(entries)) for _ in range(2)])
    return rows


@settings(derandomize=True, deadline=None, max_examples=200)
@given(augmented())
def test_elimination_matches_cramer(rows):
    """Q and every P against determinants of the matrix evaluated at integer points."""
    n = len(rows)
    q, ps = transfer._solve([[list(p) for p in row] for row in rows])
    for z in range(-6, 7):
        a = [[_value(p, z) for p in row] for row in rows]
        assert _value(q, z) == _det([row[:n] for row in a])
        for t, p in enumerate(ps):
            assert _value(p, z) == _det([row[: n - 1] + [row[n + t]] for row in a])


def test_determinant_must_be_one_at_zero():
    with pytest.raises(ArithmeticError):
        transfer._solve([[[2], [1]]])


# (zigzag, lo, hi) -> (deg Q from the elimination, deg Q in lowest terms), any altitude
BAND_DEGREES = {
    (True, -1, 1): (8, 4),
    (True, -1, 2): (12, 6),
    (True, -3, 3): (24, 12),
    (True, 0, 8): (32, 16),
    (True, -4, 5): (36, 18),
    (False, -1, 1): (5, 4),
    (False, -1, 2): (8, 4),
    (False, -3, 3): (13, 8),
    (False, 0, 8): (17, 9),
    (False, -4, 5): (20, 10),
}


@pytest.mark.parametrize("band", BAND_DEGREES)
def test_band_fractions_come_in_lowest_terms(band):
    """P Q_red = P_red Q, gcd(P_red, Q_red) = 1, Q_red(0) = 1, and the same rows."""
    import sympy

    zigzag, lo, hi = band
    c = PathConstraints(zigzag=zigzag, min_y=lo, max_y=hi)
    gf = transfer.band_gf(c)
    p, q = gf.unreduced
    num, den = list(gf.num), list(gf.den)
    assert (len(q) - 1, len(den) - 1) == BAND_DEGREES[band]
    assert den[0] == 1
    assert poly.mul(p, den) == poly.mul(num, q)
    z = sympy.Symbol("z")
    assert sympy.gcd(sympy.Poly(num[::-1], z), sympy.Poly(den[::-1], z)).as_expr() == 1
    assert gf.expand(200) == poly.RationalGF(p, q).expand(200)


def test_a_planted_non_divisor_gcd_raises_not_rounds(monkeypatch):
    c = PathConstraints(zigzag=True, min_y=-1, max_y=2)
    want = transfer.band_gf(c).expand(40)
    transfer.band_gf.cache_clear()  # the planted gcds must reach a fresh elimination
    monkeypatch.setattr(poly, "_heuristic_gcd", lambda p, q: None)
    monkeypatch.setattr(poly, "_remainder_gcd", lambda p, q: [1, 3])  # 1 + 3z divides neither
    with pytest.raises(ArithmeticError):
        transfer.band_gf(c)
    monkeypatch.setattr(poly, "_remainder_gcd", lambda p, q: [1])  # a divisor, not the greatest
    gf = transfer.band_gf(c)
    assert len(gf.den) == 13 and gf.expand(40) == want
