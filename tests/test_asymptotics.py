"""Asymptotic formulas: constants, populations, and convergence behaviour."""

from __future__ import annotations

import math
from decimal import Decimal

import pytest

from knightpaths import asymptotics, counting


def _constant(formula, m=None):
    return float(asymptotics.constant_extended(formula, m))


def test_constants_agree_across_precisions():
    for formula, spec in asymptotics.FORMULAS.items():
        ms = (0, 1, 2, 3, 5) if spec.takes_m else (None,)
        for m in ms:
            x = asymptotics.constant_extended(formula, m)
            wide = asymptotics.constant_extended(formula, m, dps=60)
            # nested square roots cost a few of the 40 digits, never 20 of them
            assert abs(wide - x) <= Decimal("1e-35") * abs(x), (formula, m)


def test_expected_steps_constant():
    assert math.isclose(_constant("expected-steps-even"), 0.723607, abs_tol=1e-6)


def test_above_line_constants():
    assert math.isclose(_constant("above-line-prob", 0), 0.965, abs_tol=1e-3)
    # the m >= 1 family grows linearly in m
    c1 = _constant("above-line-prob", 1)
    c2 = _constant("above-line-prob", 2)
    c3 = _constant("above-line-prob", 3)
    assert math.isclose(c3 - c2, c2 - c1, rel_tol=1e-12)


def test_min_height_constant_m_independent_beyond_two():
    values = {asymptotics.constant_extended("min-height-prob", m) for m in range(2, 8)}
    assert len(values) == 1
    assert asymptotics.constant_extended("min-height-prob", 0) == asymptotics.constant_extended(
        "above-line-prob", 0
    )


def test_nonneg_is_half_of_all():
    sizes = [1, 7, 50, 300, 2000]
    every = asymptotics.convergence_report("grand-all", sizes).rows
    half = asymptotics.convergence_report("grand-nonneg", sizes).rows
    for a, b in zip(every, half):
        assert abs(2 * b.estimate / a.estimate - 1) < Decimal("1e-26"), a.n


def test_estimate_past_the_double_range_is_spelled_in_full():
    report = asymptotics.convergence_report("grand-all", [706, 707, 800, 3000])
    rows = report.as_dicts()
    assert isinstance(rows[0]["estimate"], float)
    assert rows[1]["estimate"] == "3.1221924474237400e+308"
    assert rows[2]["estimate"] == "1.2243777464164895e+349"
    spelled, est = Decimal(rows[3]["estimate"]), report.rows[3].estimate
    assert len(spelled.as_tuple().digits) == 17 and abs(spelled - est) <= est * Decimal("1e-16")
    assert all(r["ratio"] == 1.0 for r in rows)


def test_report_rejects_a_bad_formula_or_depth():
    with pytest.raises(ValueError):
        asymptotics.convergence_report("no-such-formula", [10])
    with pytest.raises(ValueError, match="needs a band depth"):
        asymptotics.convergence_report("above-line-prob", [10])  # missing m
    for takes_no_m in (
        lambda: asymptotics.convergence_report("grand-all", [10], m=1),
        lambda: asymptotics.constant_extended("expected-steps-even", 0),
    ):
        with pytest.raises(ValueError, match="takes no --m"):
            takes_no_m()


def test_report_grand_all_is_sharp():
    report = asymptotics.convergence_report("grand-all", [20, 60, 120])
    for row in report.rows:
        assert abs(row.ratio - 1) < 1e-6, row


def test_report_grand_nonneg_converges_slowly():
    report = asymptotics.convergence_report("grand-nonneg", [40, 90, 160])
    assert report.tail_is_decreasing()
    # O(1/sqrt(n)) convergence: still about 2% off at n = 160
    last = report.rows[-1]
    assert 1.005 < last.ratio < 1.05


def test_report_altitude_sum():
    report = asymptotics.convergence_report("grand-altitude-sum", [30, 60, 120])
    assert report.tail_is_decreasing()
    assert abs(report.rows[-1].ratio - 1) < 0.01


def test_report_both_expected_altitude_populations():
    nonneg = asymptotics.convergence_report("grand-expected-altitude", [40, 80])
    positive = asymptotics.convergence_report(
        "grand-expected-altitude-positive", [40, 80]
    )
    for a, b in zip(nonneg.rows, positive.rows):
        assert b.exact > a.exact  # smaller population, same altitude mass
        assert abs(a.ratio - 1) < 0.2 and abs(b.ratio - 1) < 0.2


def test_report_zigzag_expected_altitude():
    report = asymptotics.convergence_report("zigzag-expected-altitude", [50, 120, 250])
    assert report.tail_is_decreasing()
    assert abs(report.rows[-1].ratio - 1) < 0.05


def test_report_above_axis_altitude():
    report = asymptotics.convergence_report("zigzag-above-axis-altitude", [50, 150])
    assert abs(report.rows[-1].ratio - 1) < 0.05


def test_report_above_line_prob():
    for m in (0, 1, 2):
        report = asymptotics.convergence_report("above-line-prob", [60, 140, 300], m=m)
        assert report.tail_is_decreasing(), m
        assert abs(report.rows[-1].ratio - 1) < 0.05, m


def test_report_min_height_prob():
    for m in (0, 1, 2, 3):
        report = asymptotics.convergence_report("min-height-prob", [80, 200], m=m)
        assert abs(report.rows[-1].ratio - 1) < 0.2, m


def test_report_expected_steps_even_and_odd():
    even = asymptotics.convergence_report("expected-steps-even", [100, 300, 600])
    assert not even.conjecture
    assert abs(even.rows[-1].ratio - 1) < 0.01
    odd = asymptotics.convergence_report("expected-steps-odd", [101, 301, 601])
    assert odd.conjecture  # reported, never gated
    assert abs(odd.rows[-1].ratio - 1) < 0.05


def test_report_requires_ascending_sizes():
    with pytest.raises(ValueError):
        asymptotics.convergence_report("grand-all", [50, 20])


def test_report_rows_are_exact():
    report = asymptotics.convergence_report("grand-all", [10])
    assert report.rows[0].exact == 18272


GRAND_FORMULAS = [name for name in asymptotics.FORMULAS if name.startswith("grand-")]


def test_grand_reports_do_not_run_the_dp(monkeypatch):
    def refuse(n_max):
        raise AssertionError("the O(n^2) DP ran on the asym path")

    monkeypatch.setattr(counting, "grand_row_stats", refuse)
    assert len(GRAND_FORMULAS) == 5
    for formula in GRAND_FORMULAS:
        report = asymptotics.convergence_report(formula, [1, 40, 400])
        assert [row.n for row in report.rows] == [1, 40, 400], formula


def test_criterion_7_inputs_are_unchanged():
    # the known-red gate reads grand-nonneg at n = 200; its inputs must not move
    report = asymptotics.convergence_report("grand-nonneg", [200])
    row = report.rows[-1]
    assert row.exact == counting.grand_row_stats(200)["nonneg"][200]
    assert f"{row.ratio:.4f}" == "1.0177"
