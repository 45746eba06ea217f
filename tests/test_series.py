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
    total = series.ZIGZAG_TOTAL_GF.expand(26)
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


def test_above_line_fixture_and_dp():
    total = series.above_line_gf(2, 17)
    assert ints(total, 16) == list(fixtures.SEQUENCES["above-line-m2"].terms)
    for m in (1, 2, 3, 4):
        row = ints(series.above_line_gf(m, 26), 26)
        dp = count_row(25, ALL, PathConstraints(zigzag=True, min_y=-m))
        assert row == dp, m


def test_series_names_equal_the_exact_rows_at_order_400():
    # the rows work the same formulas in Q(z)(r), with no LaurentSeries
    n = 400
    assert ints(series.zigzag_nonneg_gf(n), n) == recurrences.zigzag_nonneg_row(n)
    for k in range(6):
        assert ints(series.zigzag_altitude_gf(k, n), n) == recurrences.zigzag_altitude_row(k, n), k
    for m in range(1, 6):
        assert ints(series.above_line_gf(m, n), n) == recurrences.above_line_row(m, n), m


def test_above_line_threshold_valuations():
    rational = series.ZIGZAG_TOTAL_GF.expand(16)
    for m in range(1, 6):
        cutoff = 3 * m - 2
        row = ints(series.above_line_gf(m, cutoff + 2), cutoff + 1)
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
        (series.above_line_gf(2, 30), series.above_line_gf(2, 60)),
    ]
    for low, high in pairs:
        for i in range(30):
            assert low.coefficient(i) == high.coefficient(i)


# -- memoised boundary series ------------------------------------------------------

MEMOISED = {
    "zigzag boundary": (series.zigzag_boundary_gf, 3),
}


def _fields(s):
    return s.valuation, s.coeffs, s.order


def _fresh(fn, order):
    """fn(order) derived from scratch: the memo is empty before and after."""
    series._memo.clear()
    try:
        return _fields(fn(order))
    finally:
        series._memo.clear()


@pytest.mark.parametrize("key", sorted(MEMOISED))
def test_memoised_result_equals_a_fresh_derivation(key):
    fn, least = MEMOISED[key]
    orders = range(least, least + 41)
    top = least + 80
    fresh = {o: _fresh(fn, o) for o in [*orders, top]}
    for o in orders:  # each call derives anew and replaces the entry
        assert _fields(fn(o)) == fresh[o], (key, o)
        assert series._memo[key][0] == o
    fn(top)
    for o in reversed(orders):  # each call truncates the entry at top
        assert _fields(fn(o)) == fresh[o], (key, o)
        assert series._memo[key][0] == top
    assert _fields(fn(top)) == fresh[top]
    series._memo.clear()


def test_order_checks_run_before_the_memo():
    series.zigzag_boundary_gf(40)  # caches the boundary at 40
    for fn, low in ((series.zigzag_kernel_roots, 5), (series.zigzag_boundary_gf, 2)):
        with pytest.raises(ValueError, match="order must be at least"):
            fn(low)
    assert list(series._memo) == ["zigzag boundary"]


def test_verify_leaves_every_memo_entry_intact():
    from knightpaths.verification import run_checks

    series._memo.clear()
    assert all(r.passed for r in run_checks("quick") if not r.name.startswith("7"))
    derive = {
        "zigzag boundary": lambda o: series._derive_zigzag_boundary(
            o, series.zigzag_kernel_roots(o + 3)[0]
        ),
    }
    entries = dict(series._memo)
    assert sorted(entries) == sorted(derive)
    for key, (top, result) in entries.items():
        assert _fields(result) == _fresh(derive[key], top), key


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


def _zigzag_altitude_loss(k: int) -> int:
    return 0 if k == 0 else -1 if k == 1 else 8 - 3 * k


def _orders(*parts):
    return [s.order for s in parts]


# name: (least order, params, got(order, p), surplus(order, p))
GUARDS = {
    "zigzag_kernel_roots": (
        Z, [None],
        lambda o, _: _orders(*series.zigzag_kernel_roots(o)),
        lambda o, _: [0, 0],
    ),
    "zigzag_boundary_gf": (
        3, [None],
        lambda o, _: _orders(series.zigzag_boundary_gf(o)),
        lambda o, _: [0],
    ),
    "zigzag_altitude_gf": (
        1, [*range(8), 11, 20, 30],
        lambda o, k: _orders(series.zigzag_altitude_gf(k, o)),
        lambda o, k: [_floor_gap(o + _zigzag_altitude_loss(k))],
    ),
    "zigzag_nonneg_gf": (
        1, [None],
        lambda o, _: _orders(series.zigzag_nonneg_gf(o)),
        lambda o, _: [_floor_gap(o)],
    ),
    "above_line_gf": (
        1, [1, 2, 3, 4, 5, 8, 13, 20],
        lambda o, m: _orders(series.above_line_gf(m, o)),
        lambda o, m: [0],
    ),
}

GUARD_ORDERS = (*range(1, 10), 17, 41, 96, 200)


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_every_guard_meets_its_contract_with_only_its_stated_surplus(name):
    least, params, got, surplus = GUARDS[name]
    for o in (o for o in GUARD_ORDERS if o >= least):
        # past order 41, only the first and the last parameter
        for p in params if o <= 41 else {*params[:1], *params[-1:]}:
            extra = surplus(o, p)
            assert all(e >= 0 for e in extra), (name, o, p)
            assert got(o, p) == [o + e for e in extra], (name, o, p)


def test_a_short_guard_raises_instead_of_rounding(monkeypatch):
    real = series.zigzag_kernel_roots

    def one_short(order):
        return tuple(r.truncate(r.order - 1) for r in real(order))

    monkeypatch.setattr(series, "zigzag_kernel_roots", one_short)
    series._memo.clear()
    try:
        with pytest.raises(ArithmeticError, match="left only order 29, needed 30"):
            series.zigzag_nonneg_gf(30)
        with pytest.raises(ArithmeticError, match="above-line total: .* order 29, needed 30"):
            series.above_line_gf(2, 30)
    finally:
        series._memo.clear()  # drop the boundary series derived from short roots
