"""Generating-function engines against fixtures and the DP oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest

from knightpaths import fixtures, series
from knightpaths.counting import ALL, NONNEG, altitude_distribution, count_paths, count_row
from knightpaths.paths import PathConstraints

ZZ = PathConstraints(zigzag=True)


def ints(gf, count):
    return series.int_coefficients(gf, count)


def wz(gf, count):
    return [int(c) for c in series.z_coefficients(gf, count)]


# -- grand world ---------------------------------------------------------------


def test_grand_kernel_roots_shape():
    r1, r2 = series.grand_kernel_roots(20)
    assert r1.valuation == -1
    assert r2.valuation == -1
    assert r1.coefficient(-1) == 1
    assert r2.coefficient(-1) == -1


def test_grand_kernel_certificates():
    res1, res2 = series.grand_kernel_residuals(50)
    assert res1.is_zero() and res1.order >= 100
    assert res2.is_zero() and res2.order >= 100


def test_grand_symmetric_functions_are_even():
    r1, r2 = series.grand_kernel_roots(20)
    series.z_coefficients(r1 + r2, 20)  # raises if any odd coefficient appears
    series.z_coefficients(r1 * r2, 20)
    with pytest.raises(ArithmeticError):
        series.z_coefficients(r1, 5)  # a single root is genuinely half-integer


def test_grand_boundary_rows():
    axis, alt1 = series.grand_boundary_gfs(8)
    assert wz(axis, 7) == [1, 0, 2, 0, 8, 6, 44]
    assert wz(alt1, 7) == [0, 0, 1, 2, 6, 12, 33]


def test_grand_altitude_rows():
    assert wz(series.grand_altitude_gf(2, 8), 6) == [0, 1, 0, 3, 1, 16]
    assert wz(series.grand_altitude_gf(5, 9), 8)[6:8] == [20, 34]
    assert wz(series.grand_altitude_gf(9, 9), 8)[6:8] == [5, 6]
    axis, _ = series.grand_boundary_gfs(9)
    assert wz(series.grand_altitude_gf(0, 9), 9) == wz(axis, 9)


def test_grand_altitude_full_table():
    for k in range(10):
        row = wz(series.grand_altitude_gf(k, 11), 10)
        for n in range(10):
            assert row[n] == fixtures.GRAND_TABLE[n][k], (n, k)


def test_grand_totals_rows():
    h1, dh1 = series.grand_totals(14)
    assert wz(h1, 13) == list(fixtures.SEQUENCES["grand-nonneg"].terms)
    assert wz(dh1, 13) == list(fixtures.SEQUENCES["grand-altitude-sum"].terms)


def test_grand_total_rational():
    assert series.GRAND_TOTAL_GF.expand(11) == list(
        fixtures.SEQUENCES["grand-total"].terms
    )


# -- zigzag world -----------------------------------------------------------------


def test_zigzag_rational_row():
    row = series.zigzag_rational(61)
    assert row[:17] == list(fixtures.SEQUENCES["zigzag-total"].terms)
    assert row[16] == 3194
    for n in range(3, 61):
        assert row[n] == row[n - 1] + row[n - 2]


def test_rational_gfs_vs_dp_to_forty():
    assert series.zigzag_rational(41) == count_row(40, ALL, ZZ)
    assert series.GRAND_TOTAL_GF.expand(41) == count_row(40, ALL, PathConstraints())
    band = PathConstraints(zigzag=True, min_y=-1, max_y=1)
    assert series.TUBE1_AXIS_GF.expand(41) == count_row(40, 0, band)


def test_zigzag_roots():
    small, large = series.zigzag_kernel_roots(50)
    assert small.valuation == 3
    assert large.valuation == -3
    res_small, res_large = series.zigzag_kernel_residuals(50)
    assert res_small.is_zero() and res_small.order >= 50
    assert res_large.is_zero() and res_large.order >= 50
    prod = small * large
    assert ints(prod, 40) == [1] + [0] * 39


def test_zigzag_boundary():
    up_axis = series.zigzag_boundary_gf(14)
    assert up_axis.coefficient(0) == 1
    axis = ints(series.zigzag_altitude_gf(0, 13), 12)
    assert axis == [1, 0, 2, 0, 4, 2, 10, 6, 22, 16, 52, 44]
    assert ints(2 * up_axis - series.LaurentSeries.from_poly({0: 1}), 12) == axis


def test_zigzag_altitude_rows():
    assert ints(series.zigzag_altitude_gf(1, 9), 8) == [0, 0, 1, 2, 2, 4, 4, 10]
    assert ints(series.zigzag_altitude_gf(3, 14), 13)[12] == 41
    for k in range(5):
        row = ints(series.zigzag_altitude_gf(k, 17), 16)
        assert row == list(fixtures.ZIGZAG_TABLE[k]), k


def test_zigzag_altitude_reconstructs_total():
    total = series.zigzag_rational(26)
    acc = [0] * 26
    for k in range(0, 52):
        row = ints(series.zigzag_altitude_gf(k, 27), 26)
        weight = 1 if k == 0 else 2  # negative altitudes mirror positive ones
        acc = [a + weight * r for a, r in zip(acc, row)]
    assert acc == total


def test_zigzag_nonneg_row():
    assert ints(series.zigzag_nonneg_gf(18), 17) == list(
        fixtures.SEQUENCES["zigzag-nonneg"].terms
    )


def test_zigzag_primitive_row():
    row = ints(series.zigzag_primitive_gf(24), 23)
    assert row == list(fixtures.SEQUENCES["zigzag-primitive"].terms)
    assert row[22] == 372
    for n in range(5, 23, 2):
        assert row[n] == 2, n


def test_above_line_fixture_and_dp():
    total, _ = series.above_line_gf(2, 17)
    assert ints(total, 16) == list(fixtures.SEQUENCES["above-line-m2"].terms)
    for m in (1, 2, 3, 4):
        row = ints(series.above_line_gf(m, 26)[0], 26)
        dp = count_row(25, ALL, PathConstraints(zigzag=True, min_y=-m))
        assert row == dp, m


def test_above_line_threshold_valuations():
    rational = series.zigzag_rational(16)
    for m in range(1, 6):
        cutoff = 3 * m - 2
        row = ints(series.above_line_gf(m, cutoff + 2)[0], cutoff + 1)
        assert row[:cutoff] == rational[:cutoff], m
        assert row[cutoff] != rational[cutoff], m


def test_above_line_bottom_edge_vs_dp():
    from knightpaths.counting import _end_states

    for m in (1, 2, 3):
        _, bottom = series.above_line_gf(m, 16)
        got = ints(bottom, 15)
        for n in range(15):
            end = _end_states(n, PathConstraints(zigzag=True, min_y=-m))
            want = sum(c for (y, d), c in end.items() if y == -m + 1 and d == 1)
            if m == 1 and n == 0:
                want += 1  # the empty path belongs to the rising class
            assert got[n] == want, (m, n)


def test_symmetric_tube_vs_dp():
    for m in (1, 2, 3):
        total, _ = series.symmetric_tube_gf(m, 31)
        dp = count_row(30, ALL, PathConstraints(zigzag=True, min_y=-m, max_y=m))
        assert ints(total, 31) == dp, m


def test_symmetric_tube_matches_band_solver():
    for m in (1, 2, 3):
        a = ints(series.symmetric_tube_gf(m, 41)[0], 40)
        b = ints(series.tube_total_gf(m, m, 41), 40)
        assert a == b, m
        edge_closed = ints(series.symmetric_tube_gf(m, 20)[1], 20)
        edge_solved = ints(series.tube_gf(m, m, 20).up[1], 20)
        assert edge_closed == edge_solved, m


def test_symmetric_tube_converges_to_unbounded():
    rational = series.zigzag_rational(30)
    agree = []
    for m in (1, 2, 3, 4, 5):
        row = ints(series.symmetric_tube_gf(m, 31)[0], 30)
        prefix = next((i for i in range(30) if row[i] != rational[i]), 30)
        agree.append(prefix)
    assert agree == sorted(agree) and len(set(agree)) == len(agree)


def test_tube_axis_fixture():
    row = ints(series.tube_axis_gf(2, 20), 19)
    assert row == list(fixtures.SEQUENCES["band-0-2-axis"].terms)
    narrow = ints(series.tube_gf(1, 1, 20).axis(), 19)
    assert narrow == list(fixtures.SEQUENCES["tube1-axis"].terms)
    assert series.TUBE1_AXIS_GF.expand(19) == narrow


def test_tube_totals_vs_dp():
    for m, M in ((0, 1), (1, 2), (2, 3), (1, 3)):
        row = ints(series.tube_total_gf(m, M, 26), 26)
        dp = count_row(25, ALL, PathConstraints(zigzag=True, min_y=-m, max_y=M))
        assert row == dp, (m, M)


def test_tube_altitude_slices_vs_dp():
    for m, M in ((1, 1), (0, 2), (1, 2)):
        band = series.tube_gf(m, M, 16)
        c = PathConstraints(zigzag=True, min_y=-m, max_y=M)
        for n in range(16):
            dist = altitude_distribution(n, c)
            for y in range(-m, M + 1):
                assert ints(band.altitude(y), 16)[n] == dist.get(y, 0), (m, M, n, y)


def test_tube_closed_forms_match_solver():
    # the direct radical closed forms only hold when the band top is >= 2
    for m, M in ((0, 2), (1, 2), (2, 2), (1, 3)):
        bottom_cf, top_cf = series.tube_boundary_closed_forms(m, M, 24)
        band = series.tube_gf(m, M, 24)
        assert ints(bottom_cf, 24) == ints(band.up[1], 24), (m, M)
        # top unknown: the falling class one short of the ceiling obeys
        # down[M+m-1] = z^2 * up[M+m]; compare via the up slice
        assert ints(top_cf, 24) == ints(band.up[m + M], 24), (m, M)
    with pytest.raises(ValueError):
        series.tube_boundary_closed_forms(1, 1, 10)


def test_tube_rejects_degenerate_band():
    with pytest.raises(ValueError):
        series.tube_gf(0, 0, 10)
    with pytest.raises(ValueError):
        series.tube_gf(2, 1, 10)


def test_span_rows():
    for k in (1, 2, 3):
        row = ints(series.span_exact_gf(k, 18), 17)
        assert row == list(fixtures.SPAN_TABLE[k - 1]), k
    row1 = ints(series.span_exact_gf(1, 40), 40)
    assert all(row1[n] == (2 if n >= 2 and n % 2 == 0 else 0) for n in range(40))
    assert ints(series.span_exact_gf(3, 17), 17)[16] == 1612


def test_span_sums_to_total():
    # every nonempty path has some span 1..2n
    n_top = 8
    total = series.zigzag_rational(n_top + 1)
    acc = [0] * (n_top + 1)
    for k in range(1, 2 * n_top + 1):
        row = ints(series.span_exact_gf(k, n_top + 1), n_top + 1)
        acc = [a + r for a, r in zip(acc, row)]
    assert acc[0] == 0 and acc[1:] == [t for t in total[1:]]


def test_coefficient_readers_keep_their_guards():
    assert ints(series.LaurentSeries(0, [2, 4, 6], 3) * Fraction(1, 2), 3) == [1, 2, 3]
    half = series.LaurentSeries(0, [1, Fraction(1, 2), 3], 3)
    with pytest.raises(ArithmeticError, match="index 1 is not integral: 1/2"):
        ints(half, 3)
    with pytest.raises(ArithmeticError, match="index 1"):
        ints(half, 5)  # the integrality guard fires before the order check
    with pytest.raises(ValueError, match="exact below order 3"):
        ints(series.LaurentSeries(0, [1, 2, 3], 3), 4)
    odd = series.LaurentSeries(0, [1, 0, 0, Fraction(1, 3)], 6)
    with pytest.raises(ArithmeticError, match=r"w\^3 is 1/3"):
        series.z_coefficients(odd, 2)
    even = series.LaurentSeries(-2, [4, 0, 1, 0, Fraction(5, 2)], 5)
    assert series.z_coefficients(even, 3) == [1, Fraction(5, 2), 0]
    with pytest.raises(ValueError, match=r"x\*\*6 requested"):
        series.z_coefficients(even, 4)


def test_span_solves_each_band_once(monkeypatch):
    calls = []
    solve = series.tube_total_gf

    def counted(m, M, order=series.DEFAULT_ORDER):
        calls.append((m, M))
        return solve(m, M, order)

    monkeypatch.setattr(series, "tube_total_gf", counted)
    for k in (1, 3, 5):
        calls.clear()
        row = ints(series.span_exact_gf(k, 12), 12)
        assert len(calls) == len(set(calls)), (k, calls)
        assert all(m <= M for m, M in calls)
        if k <= 3:
            assert row == list(fixtures.SPAN_TABLE[k - 1][:12])


def test_truncation_consistency_across_orders():
    pairs = [
        (series.zigzag_nonneg_gf(30), series.zigzag_nonneg_gf(60)),
        (series.grand_totals(30)[0], series.grand_totals(60)[0]),
        (series.tube_total_gf(1, 2, 30), series.tube_total_gf(1, 2, 60)),
    ]
    for low, high in pairs:
        for i in range(30):
            assert low.coefficient(i) == high.coefficient(i)


def test_parity_purity_of_final_answers():
    for gf in (
        series.grand_boundary_gfs(40)[0],
        series.grand_altitude_gf(3, 40),
        series.grand_totals(40)[1],
    ):
        series.z_coefficients(gf, 40)  # raises on violation


def test_z_derivative_in_half_power_world():
    # d/dz (z^3) = 3 z^2, expressed as w-series
    cubed = series.LaurentSeries.from_poly({6: 1})
    d = series.z_derivative(cubed)
    assert [int(c) for c in series.z_coefficients(d, 4)] == [0, 0, 3, 0]
    # product rule spot check on a genuine engine output
    axis, _ = series.grand_boundary_gfs(20)
    left = series.z_derivative(axis * axis)
    right = 2 * axis * series.z_derivative(axis)
    for n in range(15):
        assert left.coefficient(2 * n) == right.coefficient(2 * n)
