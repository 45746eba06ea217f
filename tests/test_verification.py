"""The verify checks certify the engines that answer, and each can fail.

Check 5 evaluates committed algebraic equations on the grand rows and the
zigzag kernel on the small root, which the rows and the series share, and
compares the powers of the root that the altitude and line rows read with
products of the root;
check 3 compares every band's transfer row with the DP and certifies its
reduced fraction against the elimination's, and checks 1, 3 and 6 read the
zigzag altitude and line rows that `gf` prints.  Each test
below but the last corrupts one input and expects its check to go red, so
a check that always passes would show here; the last bounds the DP sweeps
a quick run makes.
"""

from __future__ import annotations

import pytest

from knightpaths import counting, poly, recurrences, transfer, verification
from knightpaths.paths import DOWN, UP, PathConstraints


def _corrupted(row: list[int], index: int, by: int = 1) -> list[int]:
    row = list(row)
    row[index] += by
    return row


def _check(name: str, level: str = "quick") -> tuple[bool, str]:
    return verification.CHECKS[name](level)


def _corrupt_row(monkeypatch, row: str, param: int, index: int) -> None:
    """Corrupt coefficient `index` of a parametrised row of `recurrences` at one parameter."""
    honest = getattr(recurrences, row)

    def patched(k, count):
        got = honest(k, count)
        return _corrupted(got, index) if k == param else got

    monkeypatch.setattr(recurrences, row, patched)


@pytest.mark.parametrize(
    "row, label",
    [("grand_axis_row", "grand axis row"), ("grand_altitude_sum_row", "grand altitude-sum row")],
)
@pytest.mark.parametrize("index", [5, 30, 47])
def test_a_corrupted_grand_row_fails_check_5(monkeypatch, row, label, index):
    honest = getattr(recurrences, row)
    monkeypatch.setattr(recurrences, row, lambda count: _corrupted(honest(count), index))
    passed, detail = _check("5-kernel-certificates")
    assert not passed and detail.startswith(f"{label}: equation fails"), detail


@pytest.mark.parametrize("name", ["_GRAND_AXIS_EQUATION", "_GRAND_ALTITUDE_SUM_EQUATION"])
@pytest.mark.parametrize("power", [0, 2, 4])
def test_a_corrupted_committed_coefficient_fails_check_5(monkeypatch, name, power):
    equation = [list(c) for c in getattr(recurrences, name)]
    equation[power][-1] += 1
    monkeypatch.setattr(recurrences, name, tuple(map(tuple, equation)))
    passed, detail = _check("5-kernel-certificates")
    assert not passed and "equation fails" in detail, detail


@pytest.mark.parametrize("index", [3, 20, 49])
def test_a_wrong_small_root_coefficient_fails_check_5(monkeypatch, index):
    honest = recurrences.small_root_coeffs
    monkeypatch.setattr(
        recurrences, "small_root_coeffs", lambda order: _corrupted(honest(order), index)
    )
    passed, detail = _check("5-kernel-certificates")
    assert not passed and detail.startswith("small zigzag root: equation fails"), detail


def test_check_5_certifies_the_stored_small_root(fresh_rows):
    # the rows read the root the process keeps, so check 5 must read it too:
    # a longer stored root passes, and a wrong coefficient in it fails
    stored = recurrences.small_root_coeffs(700)
    assert _check("5-kernel-certificates")[0]
    recurrences._memo["small_root_coeffs"] = _corrupted(stored, 31)
    passed, detail = _check("5-kernel-certificates")
    assert not passed and detail.startswith("small zigzag root: equation fails at z^31"), detail


@pytest.mark.parametrize("entry", range(len(recurrences._ROOT_POWER)))
@pytest.mark.parametrize("column", range(4))
def test_a_corrupted_power_recurrence_fails_check_5(monkeypatch, fresh_rows, entry, column):
    """The root is r^1 of the power recurrence, so a corrupted entry fails the
    root's certificate, as a named failure; with the root already stored it
    fails the unroll of r^2."""
    recurrences.small_root_coeffs(100)  # the kernel step reads past z^50
    table = [list(p) for p in recurrences._ROOT_POWER]
    table[entry][column] += 1
    monkeypatch.setattr(recurrences, "_ROOT_POWER", tuple(map(tuple, table)))
    passed, detail = _check("5-kernel-certificates")
    assert not passed and detail.startswith("r^2 power recurrence: "), detail
    recurrences._memo.clear()
    passed, detail = _check("5-kernel-certificates")
    assert not passed and detail.startswith("small zigzag root: "), detail


@pytest.mark.parametrize("index", [13, 31, 49])
def test_a_wrong_next_power_fails_check_5(monkeypatch, index):
    honest = recurrences._root_powers
    monkeypatch.setattr(
        recurrences,
        "_root_powers",
        lambda j, count: (honest(j, count)[0], _corrupted(honest(j, count)[1], index)),
    )
    passed, detail = _check("5-kernel-certificates")
    assert not passed and detail.startswith(f"r^3 from r^2: differs from the product at z^{index}")


def test_a_corrupted_transfer_band_row_fails_check_3_at_quick(monkeypatch):
    honest = transfer.band_gf
    target = PathConstraints(zigzag=True, min_y=-1, max_y=2)

    class Corrupted:
        def __init__(self, gf):
            self.gf = gf

        def expand(self, count):
            return _corrupted(self.gf.expand(count), 7)

    def band_gf(c, altitude=transfer.ALL):
        gf = honest(c, altitude)
        return Corrupted(gf) if c == target else gf

    monkeypatch.setattr(transfer, "band_gf", band_gf)
    passed, detail = _check("3-cross-engine")
    assert not passed and detail.startswith("band m=1 M=2: transfer="), detail


def test_a_reduced_band_fraction_that_differs_past_the_checked_sizes_fails_check_3(monkeypatch):
    """The rows agree with the DP to size 12, so only the certificate P Q_red = P_red Q sees it."""
    honest = transfer.band_gf
    target = PathConstraints(zigzag=True, min_y=-1, max_y=2)

    def band_gf(c, altitude=transfer.ALL):
        gf = honest(c, altitude)
        if c != target:
            return gf
        wrong = poly.RationalGF(gf.num, poly.add(list(gf.den), [0] * 20 + [1]))
        wrong.unreduced = gf.unreduced
        return wrong

    monkeypatch.setattr(transfer, "band_gf", band_gf)
    passed, detail = _check("3-cross-engine")
    assert not passed and detail == "band m=1 M=2: P Q_red != P_red Q", detail


@pytest.mark.parametrize(
    "row, param, index, want",
    [
        ("zigzag_altitude_row", -2, 8, "(8,-2): "),
        ("zigzag_altitude_row", 4, 11, "(11,4): "),
        ("above_line_row", 3, 9, "above m=3: "),
    ],
)
def test_a_corrupted_answering_row_fails_check_3_at_quick(monkeypatch, row, param, index, want):
    """Check 3 reads the rows that `count --engine gf` prints for zigzag."""
    _corrupt_row(monkeypatch, row, param, index)
    passed, detail = _check("3-cross-engine")
    assert not passed and detail.startswith(want), detail


@pytest.mark.parametrize(
    "row, param, index, check, want",
    [
        ("zigzag_altitude_row", 2, 9, "1-table-fixtures", "zigzag row (9,2)=17 != 16"),
        ("above_line_row", 3, 3, "3-cross-engine", "above m=3: row="),
        ("above_line_row", 3, 3, "6-threshold-law", "m=3: row difference valuation 3 != 7"),
    ],
)
def test_a_corrupted_gf_row_fails_each_check_that_reads_it(
    monkeypatch, row, param, index, check, want
):
    """Checks 1, 3 and 6 read the altitude and line rows that `gf` prints."""
    _corrupt_row(monkeypatch, row, param, index)
    passed, detail = _check(check)
    assert not passed and detail.startswith(want), detail



def test_a_corrupted_primitive_row_fails_check_2(monkeypatch):
    """Check 2 reads the primitive row of the DP from one sweep."""
    honest = counting.primitive_row
    monkeypatch.setattr(counting, "primitive_row", lambda n: _corrupted(honest(n), 14))
    passed, detail = _check("2-sequence-fixtures")
    assert not passed and detail.startswith("zigzag-primitive: "), detail


@pytest.mark.parametrize("first", [UP, DOWN])
def test_a_corrupted_step_count_row_fails_check_8(monkeypatch, first):
    """Check 8 reads one row of step-count tables per first direction."""
    honest = counting.step_count_distributions

    def patched(n_max, c):
        for n, table in enumerate(honest(n_max, c)):
            if n == 5 and c.first_dir == first:
                table = {**table, (1, 3): table.get((1, 3), 0) + 1}
            yield table

    monkeypatch.setattr(counting, "step_count_distributions", patched)
    passed, detail = _check("8-step-refinement")
    assert not passed and detail.startswith("(5,1,3,"), detail


def test_a_quick_verify_sweeps_each_row_once(monkeypatch):
    """A quick run reads its DP rows of sizes from one sweep each: 53 sweeps,
    where reading the primitive and step-count tables one size at a time
    took 89."""
    sweep, sizes = counting._sweep, []

    def spy(n_max, *args, **kwargs):
        sizes.append(n_max)
        return sweep(n_max, *args, **kwargs)

    monkeypatch.setattr(counting, "_sweep", spy)
    results = list(verification.run_checks("quick"))
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]
    assert len(sizes) <= 53, len(sizes)
