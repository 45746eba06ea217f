"""Generating-function engines against fixtures and the DP oracle."""

from __future__ import annotations

import pytest

from knightpaths import engines, fixtures, recurrences, series, transfer
from knightpaths.counting import ALL, count_row
from knightpaths.paths import UP, PathConstraints, reach

ZZ = PathConstraints(zigzag=True)


def ints(gf, count):
    return series.int_coefficients(gf, count)


# -- grand world ---------------------------------------------------------------


def test_grand_altitude_full_table():
    for k in range(10):
        row = recurrences.grand_altitude_row(k, 10)
        for n in range(10):
            assert row[n] == fixtures.GRAND_TABLE[n][k], (n, k)


def test_grand_totals_rows():
    n = len(fixtures.SEQUENCES["grand-nonneg"].terms)
    assert recurrences.grand_nonneg_row(n) == list(fixtures.SEQUENCES["grand-nonneg"].terms)
    assert recurrences.grand_altitude_sum_row(n) == list(
        fixtures.SEQUENCES["grand-altitude-sum"].terms
    )


def test_grand_total_rational():
    assert series.GRAND_TOTAL_GF.expand(11) == list(
        fixtures.SEQUENCES["grand-total"].terms
    )


# -- zigzag world -----------------------------------------------------------------


def test_zigzag_rational_row():
    row = series.ZIGZAG_TOTAL_GF.expand(61)
    assert row[:17] == list(fixtures.SEQUENCES["zigzag-total"].terms)
    assert row[16] == 3194
    for n in range(3, 61):
        assert row[n] == row[n - 1] + row[n - 2]


def test_rational_gfs_vs_dp_to_forty():
    assert series.ZIGZAG_TOTAL_GF.expand(41) == count_row(40, ALL, ZZ)
    assert series.GRAND_TOTAL_GF.expand(41) == count_row(40, ALL, PathConstraints())
    band = PathConstraints(zigzag=True, min_y=-1, max_y=1)
    assert series.TUBE1_AXIS_GF.expand(41) == count_row(40, 0, band)


def test_zigzag_roots():
    small, large = series.zigzag_kernel_roots(50)
    assert small.valuation == 3
    assert large.valuation == -3
    z2, z3, z4 = (series.LaurentSeries.from_poly({e: 1}) for e in (2, 3, 4))
    for u in (small, large):
        # every term of the kernel keeps z^50 at either root: z^3 u^2 at the
        # large one is exact to z^(50 - 3 + 3), and -u to z^50
        residual = u * u * z3 + u * z4 + z2 * u + z3 - u
        assert residual.is_zero() and residual.order >= 50
    prod = small * large
    assert ints(prod, 40) == [1] + [0] * 39


def test_zigzag_boundary():
    up_axis = series.zigzag_boundary_gf(14)
    assert up_axis.coefficient(0) == 1
    axis = [1, 0, 2, 0, 4, 2, 10, 6, 22, 16, 52, 44]
    assert count_row(11, 0, ZZ) == axis
    assert ints(2 * up_axis - series.LaurentSeries.from_poly({0: 1}), 12) == axis


def test_zigzag_altitude_rows():
    assert recurrences.zigzag_altitude_row(1, 8) == [0, 0, 1, 2, 2, 4, 4, 10]
    assert recurrences.zigzag_altitude_row(3, 13)[12] == 41
    for k in range(5):
        row = recurrences.zigzag_altitude_row(k, 16)
        assert row == list(fixtures.ZIGZAG_TABLE[k]), k


def test_zigzag_altitude_reconstructs_total():
    total = series.ZIGZAG_TOTAL_GF.expand(26)
    acc = [0] * 26
    for k in range(0, 52):
        row = recurrences.zigzag_altitude_row(k, 26)
        weight = 1 if k == 0 else 2  # negative altitudes mirror positive ones
        acc = [a + weight * r for a, r in zip(acc, row)]
    assert acc == total


def test_zigzag_nonneg_row():
    assert ints(series.zigzag_nonneg_gf(18), 17) == list(
        fixtures.SEQUENCES["zigzag-nonneg"].terms
    )


def test_above_line_fixture_and_dp():
    row = recurrences.above_line_row(2, 16)
    assert row == list(fixtures.SEQUENCES["above-line-m2"].terms)
    for m in (1, 2, 3, 4):
        row = recurrences.above_line_row(m, 26)
        dp = count_row(25, ALL, PathConstraints(zigzag=True, min_y=-m))
        assert row == dp, m


def test_series_names_equal_the_exact_rows_at_order_400():
    # the row works the same formula in Q(z)(r), with no LaurentSeries
    n = 400
    assert ints(series.zigzag_nonneg_gf(n), n) == recurrences.zigzag_nonneg_row(n)


def test_above_line_threshold_valuations():
    rational = series.ZIGZAG_TOTAL_GF.expand(16)
    for m in range(1, 6):
        cutoff = 3 * m - 2
        row = recurrences.above_line_row(m, cutoff + 1)
        assert row[:cutoff] == rational[:cutoff], m
        assert row[cutoff] != rational[cutoff], m


def _symmetric_band(m, **kw):
    return PathConstraints(zigzag=True, min_y=-m, max_y=m, **kw)


def test_symmetric_band_total_vs_dp():
    for m in (1, 2, 3):
        c = _symmetric_band(m)
        assert transfer.band_gf(c).expand(31) == count_row(30, ALL, c), m


def test_symmetric_band_converges_to_unbounded():
    rational = series.ZIGZAG_TOTAL_GF.expand(30)
    agree = []
    for m in (1, 2, 3, 4, 5):
        row = transfer.band_gf(_symmetric_band(m)).expand(30)
        assert all(a <= b for a, b in zip(row, rational)), m
        agree.append(next((i for i in range(30) if row[i] != rational[i]), 30))
    assert all(a < b for a, b in zip(agree, agree[1:])), agree


def test_tube_axis_fixture():
    row = engines.gf_row("tube-axis", 19, M=2)
    assert row == list(fixtures.SEQUENCES["band-0-2-axis"].terms)
    narrow = transfer.band_gf(_symmetric_band(1), 0).expand(19)
    assert narrow == list(fixtures.SEQUENCES["tube1-axis"].terms)
    assert series.TUBE1_AXIS_GF.expand(19) == narrow


def test_tube_totals_vs_dp():
    for m, M in ((0, 1), (1, 2), (2, 3), (1, 3)):
        row = engines.gf_row("tube", 26, m=m, M=M)
        dp = count_row(25, ALL, PathConstraints(zigzag=True, min_y=-m, max_y=M))
        assert row == dp, (m, M)


def test_band_boundary_rows():
    """The kernel method's two boundary unknowns, paths ending with a rise at
    -m + 1 and at M, from the transfer engine against the DP, for every band
    [-m, M] with m, M <= 3."""
    for m in range(4):
        for M in range(4):
            c = PathConstraints(zigzag=True, min_y=-m, max_y=M, last_dir=UP)
            for y in (1 - m, M):
                row = transfer.band_gf(c, y).expand(24)
                assert row == count_row(23, y, c), (m, M, y)


def test_tube_rejects_degenerate_band():
    with pytest.raises(ValueError, match="only the empty path"):
        engines.gf_row("tube", 10, m=0, M=0)
    with pytest.raises(ValueError, match="0 <= m <= M"):
        engines.gf_row("tube", 10, m=2, M=1)


def test_span_rows():
    for k in (1, 2, 3):
        assert transfer.span_exact_row(k, 17) == list(fixtures.SPAN_TABLE[k - 1]), k
    row1 = transfer.span_exact_row(1, 40)
    assert all(row1[n] == (2 if n >= 2 and n % 2 == 0 else 0) for n in range(40))
    assert transfer.span_exact_row(3, 17)[16] == 1612


def test_span_sums_to_total():
    # every nonempty path has some span 1..2 reach(n)
    n_top = 16
    total = series.ZIGZAG_TOTAL_GF.expand(n_top + 1)
    acc = [0] * (n_top + 1)
    for k in range(1, 2 * reach(n_top, True) + 1):
        acc = [a + r for a, r in zip(acc, transfer.span_exact_row(k, n_top + 1))]
    assert acc == [0] + total[1:]


def test_coefficient_readers_keep_their_guards():
    assert ints(series.LaurentSeries(0, [1, 2, 3], 3), 3) == [1, 2, 3]
    assert ints(series.LaurentSeries(2, [5], None), 4) == [0, 0, 5, 0]
    with pytest.raises(ValueError, match="exact below order 3"):
        ints(series.LaurentSeries(0, [1, 2, 3], 3), 4)


def test_span_solves_each_band_once(monkeypatch):
    calls = []
    solve = transfer.band_gf

    def counted(c, altitude=ALL):
        calls.append((-c.min_y, c.max_y))
        return solve(c, altitude)

    monkeypatch.setattr(transfer, "band_gf", counted)
    for k in (1, 3, 5):
        calls.clear()
        row = transfer.span_exact_row(k, 12)
        assert len(calls) == len(set(calls)), (k, calls)
        assert all(m <= M for m, M in calls)
        if k <= 3:
            assert row == list(fixtures.SPAN_TABLE[k - 1][:12])


def test_truncation_consistency_across_orders():
    pairs = [
        (series.zigzag_nonneg_gf(30), series.zigzag_nonneg_gf(60)),
        (series.zigzag_boundary_gf(30), series.zigzag_boundary_gf(60)),
    ]
    for low, high in pairs:
        for i in range(30):
            assert low.coefficient(i) == high.coefficient(i)


# -- precision guards ------------------------------------------------------------
#
# Every working order is the exact loss of its derivation, so each function
# returns a known order: its contract plus only the surplus its docstring
# states.  A working order is never below the roots' least order, and that
# floor is the one source of extra surplus.

Z = series.ZIGZAG_LEAST


def _floor_gap(work: int) -> int:
    """How far the working order `work` is raised to reach the roots' least order."""
    return max(0, Z - work)


def _orders(*parts):
    return [s.order for s in parts]


# name: (least order, got(order), surplus(order))
GUARDS = {
    "zigzag_kernel_roots": (
        Z,
        lambda o: _orders(*series.zigzag_kernel_roots(o)),
        lambda o: [0, 0],
    ),
    "zigzag_boundary_gf": (
        3,
        lambda o: _orders(series.zigzag_boundary_gf(o)),
        lambda o: [0],
    ),
    "zigzag_nonneg_gf": (
        1,
        lambda o: _orders(series.zigzag_nonneg_gf(o)),
        lambda o: [_floor_gap(o)],
    ),
}

GUARD_ORDERS = (*range(1, 10), 17, 41, 96, 200)


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_every_guard_meets_its_contract_with_only_its_stated_surplus(name):
    least, got, surplus = GUARDS[name]
    for o in (o for o in GUARD_ORDERS if o >= least):
        extra = surplus(o)
        assert all(e >= 0 for e in extra), (name, o)
        assert got(o) == [o + e for e in extra], (name, o)


def test_the_roots_and_the_boundary_check_their_least_order():
    for fn, low in ((series.zigzag_kernel_roots, 5), (series.zigzag_boundary_gf, 2)):
        with pytest.raises(ValueError, match="order must be at least"):
            fn(low)


def test_a_short_guard_raises_instead_of_rounding(monkeypatch):
    real = series.zigzag_kernel_roots

    def one_short(order):
        return tuple(
            series.LaurentSeries(r.valuation, r.window(r.valuation, r.order - 1), r.order - 1)
            for r in real(order)
        )

    monkeypatch.setattr(series, "zigzag_kernel_roots", one_short)
    with pytest.raises(ArithmeticError, match="left only order 29, needed 30"):
        series.zigzag_nonneg_gf(30)
    with pytest.raises(ArithmeticError, match="zigzag boundary gf: .* order 29, needed 30"):
        series.zigzag_boundary_gf(30)
