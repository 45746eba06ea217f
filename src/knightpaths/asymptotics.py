"""Asymptotic formulas and empirical convergence diagnostics.

Each formula evaluates in 40-digit stdlib decimal arithmetic with an
unbounded exponent, so that ratios against exact big-integer counts never
overflow.  Exact values come from the O(n) integer recurrences, never from
truncating the algebraic series at order n.

Every constant here is pinned by the convergence tests: the exact/estimate
ratios must approach 1 over the tested ranges.  The expected-steps formula
for odd sizes is conjectural; it is reported but never gated.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable

from . import closedforms, recurrences


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    exact: Fraction
    estimate: Decimal
    ratio: float


def _spell(estimate: Decimal) -> float | str:
    """The estimate as a double, or past the double range as 17 significant digits."""
    value = float(estimate)
    return value if math.isfinite(value) else format(estimate, ".16e")


@dataclass(frozen=True)
class ConvergenceReport:
    formula: str
    m: int | None
    rows: tuple[ConvergenceRow, ...]
    conjecture: bool

    def tail_is_decreasing(self) -> bool:
        """True if |ratio - 1| strictly decreases along the reported sizes."""
        gaps = [abs(r.ratio - 1.0) for r in self.rows if not math.isnan(r.ratio)]
        return all(a > b for a, b in zip(gaps, gaps[1:]))

    def as_dicts(self) -> list[dict]:
        """One dict per row; an estimate past the double range is a string."""
        return [
            {
                "n": r.n,
                "exact": str(r.exact) if r.exact.denominator != 1 else str(r.exact.numerator),
                "estimate": _spell(r.estimate),
                "ratio": r.ratio,
            }
            for r in self.rows
        ]


# -- formula definitions -----------------------------------------------------
#
# Each entry maps to (constant, growth) callables; value(n) = constant *
# growth(n).  They round to the digits of the active decimal context.

pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")  # 60 digits


def sqrt(x: int | Decimal) -> Decimal:
    return Decimal(x).sqrt()


def _context(digits: int) -> decimal.Context:
    """A decimal context at `digits` digits whose exponent never overflows."""
    return decimal.Context(prec=digits, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _c_grand_all():
    return sqrt(3) / 6


def _c_grand_nonneg():
    return sqrt(3) / 12


def _c_grand_altitude_sum():
    # the /12 is load-bearing: doubling it makes every exact ratio ~0.5
    return (4 * sqrt(3) + 7) * sqrt(2) * sqrt(137 * sqrt(3) - 237) / 12


def _c_grand_expected_altitude():
    # altitude-sum prefactor over count prefactor; inherits the 1/2 above
    return (5 + 3 * sqrt(3)) * sqrt(137 * sqrt(3) - 237) * sqrt(
        2 / (3 * pi)
    ) / 2


def _c_zigzag_expected_altitude():
    return 2 * (sqrt(5) - 2) / sqrt(7 * sqrt(5) - 15) / sqrt(pi)


def _c_zigzag_above_axis_altitude():
    return (5 + sqrt(5)) * sqrt(7 * sqrt(5) - 15) / 20 * sqrt(pi)


def _c_expected_steps():
    return (1 + sqrt(5)) / (2 * sqrt(5))


def _c_above_line(m: int):
    base = sqrt((7 * sqrt(5) - 15) / pi)
    if m == 0:
        return (2 + sqrt(5)) / 2 * base
    return (4 * m + 3 - sqrt(5)) / (4 * (sqrt(5) - 2)) * base


def _c_min_height(m: int):
    base = sqrt((7 * sqrt(5) - 15) / pi)
    if m == 0:
        return (2 + sqrt(5)) / 2 * base
    if m == 1:
        return (5 + 3 * sqrt(5)) / 4 * base
    return (2 + sqrt(5)) * base  # identical for every m >= 2


def _pow_growth(offset: int) -> Callable:
    def growth(n):
        return (1 + sqrt(3)) ** (n + offset)

    return growth


@dataclass(frozen=True)
class _Formula:
    constant: Callable  # ([m]) -> Decimal
    growth: Callable  # (n) -> Decimal
    exact: Callable  # (n_list[, m]) -> list[Fraction]
    takes_m: bool = False
    conjecture: bool = False
    min_n: int = 0  # smallest size with both an estimate and an exact value


def _ratio(num: str, den: str | None = None) -> Callable:
    """exact(n_list): row `num` of `recurrences` over row `den` (or 1) at each size.

    The rows are looked up by name when exact runs, so a patched row is read.
    """

    def exact(n_list):
        top = max(n_list) + 1
        nums = getattr(recurrences, num)(top)
        dens = [1] * top if den is None else getattr(recurrences, den)(top)
        return [Fraction(nums[n], dens[n]) for n in n_list]

    return exact


def _exact_expected_steps(n_list):
    return [closedforms.expected_steps(n, 0) for n in n_list]


def _exact_above_line_prob(n_list, m):
    top = max(n_list) + 1
    bounded = recurrences.above_line_row(m, top)
    total = recurrences.zigzag_total_row(top)
    return [Fraction(bounded[n], total[n]) for n in n_list]


def _exact_min_height_prob(n_list, m):
    top = max(n_list) + 1
    at_m = recurrences.above_line_row(m, top)
    total = recurrences.zigzag_total_row(top)
    if m == 0:
        return [Fraction(at_m[n], total[n]) for n in n_list]
    shallower = recurrences.above_line_row(m - 1, top)
    return [Fraction(at_m[n] - shallower[n], total[n]) for n in n_list]


FORMULAS: dict[str, _Formula] = {
    "grand-all": _Formula(
        _c_grand_all, _pow_growth(1), exact=_ratio("grand_total_row")
    ),
    "grand-nonneg": _Formula(
        _c_grand_nonneg, _pow_growth(1), exact=_ratio("grand_nonneg_row")
    ),
    "grand-altitude-sum": _Formula(
        _c_grand_altitude_sum,
        lambda n: sqrt(n / pi) * (1 + sqrt(3)) ** n,
        exact=_ratio("grand_altitude_sum_row"),
    ),
    "grand-expected-altitude": _Formula(
        _c_grand_expected_altitude,
        lambda n: sqrt(n),
        exact=_ratio("grand_altitude_sum_row", "grand_nonneg_row"),
    ),
    "grand-expected-altitude-positive": _Formula(
        _c_grand_expected_altitude,
        lambda n: sqrt(n),
        exact=_ratio("grand_altitude_sum_row", "grand_positive_row"),
        min_n=1,  # no path of size 0 ends above the axis
    ),
    "zigzag-expected-altitude": _Formula(
        _c_zigzag_expected_altitude,
        lambda n: sqrt(n),
        exact=_ratio("zigzag_altitude_sum_row", "zigzag_nonneg_row"),
    ),
    "zigzag-above-axis-altitude": _Formula(
        _c_zigzag_above_axis_altitude,
        lambda n: sqrt(n),
        exact=_ratio("above_axis_altitude_sum_row", "above_axis_row"),
    ),
    "expected-steps-even": _Formula(
        _c_expected_steps, lambda n: n, exact=_exact_expected_steps
    ),
    "expected-steps-odd": _Formula(
        _c_expected_steps,
        lambda n: n,
        conjecture=True,
        exact=_exact_expected_steps,
    ),
    "above-line-prob": _Formula(
        _c_above_line,
        lambda n: 1 / sqrt(n),
        takes_m=True,
        exact=_exact_above_line_prob,
        min_n=1,
    ),
    "min-height-prob": _Formula(
        _c_min_height,
        lambda n: 1 / sqrt(n),
        takes_m=True,
        exact=_exact_min_height_prob,
        min_n=1,
    ),
}


def _lookup(formula: str) -> _Formula:
    try:
        return FORMULAS[formula]
    except KeyError:
        raise ValueError(f"unknown formula {formula!r}") from None


def _check_depth(formula: str, entry: _Formula, m: int | None) -> None:
    """A formula with a band depth needs m >= 0; any other takes no m."""
    if entry.takes_m and (m is None or m < 0):
        raise ValueError(f"{formula} needs a band depth m >= 0")
    if not entry.takes_m and m is not None:
        raise ValueError(f"{formula} takes no --m")


def constant_extended(formula: str, m: int | None = None, dps: int = 40) -> Decimal:
    """The n-free prefactor of the formula, in decimal arithmetic at `dps` digits."""
    entry = _lookup(formula)
    _check_depth(formula, entry, m)
    with decimal.localcontext(_context(dps)):
        return entry.constant(m) if entry.takes_m else entry.constant()


def convergence_report(
    formula: str, n_list: list[int], m: int | None = None
) -> ConvergenceReport:
    """Exact values vs the asymptotic estimate over ascending sizes.

    Ratios are exact/estimate computed in extended precision (a count such
    as the grand total at n = 2000 far exceeds double range).  Rows with an
    exact value of zero report a NaN ratio rather than failing.
    """
    if not n_list or sorted(n_list) != list(n_list):
        raise ValueError("n_list must be non-empty and ascending")
    if n_list[0] < 0:
        raise ValueError("sizes must be non-negative")
    entry = _lookup(formula)
    if n_list[0] < entry.min_n:
        raise ValueError(
            f"{formula} is undefined at n = {n_list[0]}; sizes must be >= {entry.min_n}"
        )
    _check_depth(formula, entry, m)
    exacts = entry.exact(n_list, m) if entry.takes_m else entry.exact(n_list)
    c = constant_extended(formula, m)
    rows = []
    with decimal.localcontext(_context(40)):
        for n, exact in zip(n_list, exacts):
            est = c * entry.growth(n)
            if exact == 0:
                ratio = math.nan
            else:
                ratio = float(Decimal(exact.numerator) / exact.denominator / est)
            rows.append(ConvergenceRow(n, exact, est, ratio))
    return ConvergenceReport(formula, m, tuple(rows), entry.conjecture)
