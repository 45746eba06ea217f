"""Binomial closed forms against brute force and the DP engine."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest

from knightpaths import closedforms, recurrences, series
from knightpaths.bijections import composition_pairs, compositions
from knightpaths.closedforms import (
    binom,
    composition_pairs_count,
    expected_steps,
    zigzag_count_closed,
    zigzag_count_one_sided,
    zigzag_nonneg_closed,
    zigzag_step_count,
    zigzag_total_closed,
)
from knightpaths.counting import altitude_distribution, step_count_distribution
from knightpaths.fixtures import ZIGZAG_TABLE
from knightpaths.paths import DOWN, UP, PathConstraints, reach


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(4, 0) == 1
    assert binom(-1, 0) == 0
    assert binom(4, -1) == 0


def brute_pairs(n: int, m: int) -> int:
    xs = [c for c in compositions(n, (1, 2))]
    ys = [c for c in compositions(m, (1, 2))]
    return sum(1 for x, y in product(xs, ys) if len(x) == len(y))


def test_composition_pairs_small():
    assert composition_pairs_count(2, 2) == 2  # ((2),(2)) and ((1,1),(1,1))
    assert composition_pairs_count(0, 0) == 1  # the empty pair
    assert composition_pairs_count(1, 1) == 1
    assert composition_pairs_count(5, 2) == 0  # part counts cannot match


def test_composition_pairs_vs_brute_force():
    for n in range(13):
        for m in range(13):
            assert composition_pairs_count(n, m) == brute_pairs(n, m), (n, m)


def test_composition_pairs_symmetry():
    for n in range(13):
        for m in range(13):
            assert composition_pairs_count(n, m) == composition_pairs_count(m, n)


def test_generator_agrees_with_count():
    for n in range(9):
        for m in range(9):
            assert len(list(composition_pairs(n, m))) == composition_pairs_count(n, m)


def test_zigzag_closed_table_values():
    assert zigzag_count_closed(4, 0) == 4
    assert zigzag_count_closed(7, 0) == 6
    assert zigzag_count_closed(0, 0) == 1
    for k in range(5):
        for n in range(16):
            assert zigzag_count_closed(n, k) == ZIGZAG_TABLE[k][n], (n, k)


def test_zigzag_closed_vs_dp():
    for n in range(21):
        dist = altitude_distribution(n, PathConstraints(zigzag=True))
        for k in range(-2 * n, 2 * n + 1):
            assert zigzag_count_closed(n, k) == dist.get(k, 0), (n, k)


def test_zigzag_closed_symmetry_and_parity():
    for n in range(16):
        for k in range(0, 2 * n + 1):
            assert zigzag_count_closed(n, k) == zigzag_count_closed(n, -k)
            if (n - k) % 2 == 0 and (n, k) != (0, 0):
                assert zigzag_count_closed(n, k) % 2 == 0, (n, k)


def test_zigzag_closed_vanishes_beyond_the_reach():
    for n in range(301):
        for k in range(reach(n, True) + 1, 2 * n + 1):
            assert zigzag_count_closed(n, k) == zigzag_count_closed(n, -k) == 0, (n, k)


def test_zigzag_totals_vs_per_altitude_sums():
    for n in range(60):
        by_k = {k: zigzag_count_closed(n, k) for k in range(-2 * n, 2 * n + 1)}
        assert zigzag_total_closed(n) == sum(by_k.values()), n
        assert zigzag_nonneg_closed(n) == sum(v for k, v in by_k.items() if k >= 0), n


def test_zigzag_totals_vs_series_and_recurrence():
    assert [zigzag_total_closed(n) for n in range(400)] == series.ZIGZAG_TOTAL_GF.expand(400)
    assert [zigzag_nonneg_closed(n) for n in range(400)] == recurrences.zigzag_nonneg_row(400)
    assert zigzag_total_closed(-1) == 0


def test_zigzag_nonneg_closed_rejects_an_odd_sum(monkeypatch):
    monkeypatch.setattr(closedforms, "zigzag_total_closed", lambda n: 5)
    with pytest.raises(ArithmeticError):
        zigzag_nonneg_closed(3)


def test_one_sided_chain():
    for n in range(15):
        for k in range(-n, n + 1):
            if (n - k) % 2 or (n, k) == (0, 0):
                continue
            assert 2 * composition_pairs_count(
                (n - k) // 2, (n + k) // 2
            ) == zigzag_count_closed(n, k)
            assert zigzag_count_one_sided(n, k) == composition_pairs_count(
                (n - k) // 2, (n + k) // 2
            )


def test_step_count_small_cases():
    assert zigzag_step_count(2, 0, 2, UP) == 1  # N Nb
    assert zigzag_step_count(4, 0, 2, UP) == 1  # E Eb
    assert zigzag_step_count(4, 0, 2, DOWN) == 1  # Eb E
    assert zigzag_step_count(3, 1, 2, UP) == 1  # N Eb
    assert zigzag_step_count(0, 0, 0, UP) == 1  # empty path convention
    assert zigzag_step_count(5, 0, 2, UP) == 0  # parity mismatch


def test_step_count_parity_vanishing():
    for n in range(10):
        for k in range(-6, 7):
            for i in range(n + 1):
                if (i - (n - k)) % 2:
                    assert zigzag_step_count(n, k, i, UP) == 0, (n, k, i)


def test_step_count_sums_to_total():
    for n in range(15):
        for k in range(-5, 6):
            if (n, k) == (0, 0):
                continue
            total = sum(
                zigzag_step_count(n, k, i, d)
                for i in range(n + 1)
                for d in (UP, DOWN)
            )
            assert total == zigzag_count_closed(n, k), (n, k)


def test_step_count_vs_steps_tracking_dp():
    for first in (UP, DOWN):
        for n in range(1, 13):
            table = step_count_distribution(
                n, PathConstraints(zigzag=True, first_dir=first)
            )
            for k in range(-2 * n, 2 * n + 1):
                for i in range(n + 1):
                    assert zigzag_step_count(n, k, i, first) == table.get(
                        (k, i), 0
                    ), (n, k, i, first)


def test_expected_steps_values():
    assert expected_steps(4, 0) == 3
    assert expected_steps(2, 0) == 2
    assert expected_steps(0, 0) == 0
    assert expected_steps(8, 0) == 6
    assert expected_steps(12, 0) == Fraction(1112, 126)


def test_expected_steps_matches_enumeration():
    # oracle: weighted mean over the DP step distribution
    for n in range(1, 13):
        table = step_count_distribution(n, PathConstraints(zigzag=True))
        for k in range(-2 * n, 2 * n + 1):
            rows = {i: c for (kk, i), c in table.items() if kk == k}
            if not rows:
                continue
            want = Fraction(sum(i * c for i, c in rows.items()), sum(rows.values()))
            assert expected_steps(n, k) == want, (n, k)


def test_expected_steps_undefined():
    with pytest.raises(ValueError):
        expected_steps(1, 0)  # no size-1 path ends on the axis
