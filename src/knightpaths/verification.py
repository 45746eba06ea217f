"""Cross-engine verification suite.

Nine numbered checks, each pitting at least two independent engines against
each other or against the embedded fixtures.  The CLI `verify` command and
the acceptance test module both run these; a check failure is always a real
disagreement, never a formatting artifact.

Each check compares the engines that print numbers: the DP, the closed
forms, the integer rows of `recurrences`, the transfer engine for bands and,
in check 2, the zigzag kernel series that `gf --name zigzag-nonneg`
expands.  Checks 1, 3 and 6 read the zigzag altitude and line rows that
`count --engine gf` and `gf` print, against the fixtures, the DP, the
closed forms and the rational total; check 3 also certifies each band's
fraction in lowest terms against the elimination's own, P Q_red = P_red Q.
Check 5 certifies three things by integer products: the grand rows against
their committed algebraic equations; the integer small root, r^1 of the
committed power recurrence and shared by the rows and the series, against
the zigzag kernel; and the powers of that root that the altitude and line
rows read, from that recurrence and from the kernel step, against the
root's own products.

Levels: "quick" runs reduced ranges; "full" runs the complete ranges,
including the large-size asymptotic gates.  On a 2-core VM the checks take
about 24 ms and 0.11 s on a first run in a fresh process (20 and 90 ms
warm).  The DP rows of sizes they read come from one sweep each.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from . import asymptotics, bijections, closedforms, counting, poly, recurrences, series, transfer
from .counting import ALL, NONNEG
from .fixtures import GRAND_TABLE, SEQUENCES, SPAN_TABLE, ZIGZAG_TABLE
from .paths import DOWN, UP, Path, PathConstraints, Step, validate_path


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _zigzag(**kw) -> PathConstraints:
    return PathConstraints(zigzag=True, **kw)


# -- criterion 1: table fixtures ---------------------------------------------


def check_table_fixtures(level: str = "quick") -> tuple[bool, str]:
    problems = []
    alt_rows = {k: recurrences.grand_altitude_row(k, 10) for k in range(10)}
    for n, dist in enumerate(counting.altitude_distributions(9, PathConstraints())):
        for k in range(10):
            want = GRAND_TABLE[n][k]
            if dist.get(k, 0) != want:
                problems.append(f"grand DP ({n},{k})={dist.get(k, 0)} != {want}")
            if alt_rows[k][n] != want:
                problems.append(f"grand row ({n},{k})={alt_rows[k][n]} != {want}")
    zig_rows = {k: recurrences.zigzag_altitude_row(k, 16) for k in range(5)}
    for n, dist in enumerate(counting.altitude_distributions(15, _zigzag())):
        for k in range(5):
            want = ZIGZAG_TABLE[k][n]
            if dist.get(k, 0) != want:
                problems.append(f"zigzag DP ({n},{k})={dist.get(k, 0)} != {want}")
            if zig_rows[k][n] != want:
                problems.append(f"zigzag row ({n},{k})={zig_rows[k][n]} != {want}")
            got = closedforms.zigzag_count_closed(n, k)
            if got != want:
                problems.append(f"zigzag closed ({n},{k})={got} != {want}")
    for k in (1, 2, 3):
        row = transfer.span_exact_row(k, 17)
        if tuple(row) != SPAN_TABLE[k - 1]:
            problems.append(f"span transfer k={k}: {row}")
        dp_row = _span_row_dp(16, k)
        if tuple(dp_row) != SPAN_TABLE[k - 1]:
            problems.append(f"span DP k={k}: {dp_row}")
    return not problems, "; ".join(problems) or "3 tables, 2 or 3 engines each"


def _span_row_dp(n_max: int, k: int) -> list[int]:
    """Exact-span counts for sizes 0..n_max from banded DP rows.

    S(j) sums the rows of the span-j bands [-m, j - m], m = 0..j.  A path of
    span s lies in max(0, j - s + 1) of them, so by inclusion-exclusion the
    paths of span exactly k number S(k) - 2 S(k - 1) + S(k - 2).
    """

    def spans(j: int) -> list[int]:
        total = [0] * (n_max + 1)
        for m in range(j + 1):
            row = counting.count_row(n_max, ALL, _zigzag(min_y=-m, max_y=j - m))
            total = [a + b for a, b in zip(total, row)]
        return total

    s_k, s_k1, s_k2 = spans(k), spans(k - 1), spans(k - 2)
    return [a - 2 * b + c for a, b, c in zip(s_k, s_k1, s_k2)]


# -- criterion 2: sequence fixtures ------------------------------------------


def check_sequence_fixtures(level: str = "quick") -> tuple[bool, str]:
    problems = []

    def compare(name: str, got: list[int]) -> None:
        want = list(SEQUENCES[name].terms)
        if got[: len(want)] != want:
            problems.append(f"{name}: {got[: len(want)]} != {want}")

    n_grand = len(SEQUENCES["grand-nonneg"].terms)
    compare("grand-total", series.GRAND_TOTAL_GF.expand(11))
    stats = counting.grand_row_stats(n_grand - 1)
    compare("grand-total", stats["total"][:11])
    compare("grand-total", recurrences.grand_total_row(11))
    compare("grand-nonneg", stats["nonneg"])
    compare("grand-nonneg", recurrences.grand_nonneg_row(n_grand))
    compare("grand-altitude-sum", stats["altitude_sum"])
    compare("grand-altitude-sum", recurrences.grand_altitude_sum_row(n_grand))

    compare("zigzag-total", series.ZIGZAG_TOTAL_GF.expand(17))
    compare("zigzag-total", counting.count_row(16, ALL, _zigzag()))
    compare("zigzag-nonneg", series.int_coefficients(series.zigzag_nonneg_gf(17), 17))
    compare("zigzag-nonneg", counting.count_row(16, NONNEG, _zigzag()))
    compare("zigzag-primitive", recurrences.zigzag_primitive_row(23))
    compare("zigzag-primitive", counting.primitive_row(22))
    compare("above-line-m2", recurrences.above_line_row(2, 16))
    compare("above-line-m2", counting.count_row(15, ALL, _zigzag(min_y=-2)))
    compare("tube1-axis", series.TUBE1_AXIS_GF.expand(19))
    for name, lo, hi in (("tube1-axis", -1, 1), ("band-0-2-axis", 0, 2)):
        band = _zigzag(min_y=lo, max_y=hi)
        compare(name, transfer.band_gf(band, 0).expand(19))
        compare(name, counting.count_row(18, 0, band))
    return not problems, "; ".join(problems) or f"{len(SEQUENCES)} sequences"


# -- criterion 3: cross-engine equivalence -----------------------------------


def check_cross_engine(level: str = "quick") -> tuple[bool, str]:
    n_top, k_top, band_top = (20, 8, 25) if level == "full" else (12, 4, 12)
    problems = []
    rows = {
        k: recurrences.zigzag_altitude_row(k, n_top + 1)
        for k in range(-k_top, k_top + 1)
    }
    for n, dist in enumerate(counting.altitude_distributions(n_top, _zigzag())):
        for k in range(-k_top, k_top + 1):
            dp = dist.get(k, 0)
            closed = closedforms.zigzag_count_closed(n, k)
            row = rows[k][n]
            if not dp == closed == row:
                problems.append(f"({n},{k}): dp={dp} closed={closed} row={row}")
    for m in (1, 2, 3):
        dp_row = counting.count_row(band_top, ALL, _zigzag(min_y=-m))
        row = recurrences.above_line_row(m, band_top + 1)
        if row != dp_row:
            problems.append(f"above m={m}: row={row} dp={dp_row}")
    for m in range(0, 4):
        for M in range(max(m, 1), 4):
            band = _zigzag(min_y=-m, max_y=M)
            dp_row = counting.count_row(band_top, ALL, band)
            gf = transfer.band_gf(band)
            transfer_row = gf.expand(band_top + 1)
            if transfer_row != dp_row:
                problems.append(f"band m={m} M={M}: transfer={transfer_row} dp={dp_row}")
            elif poly.mul(gf.unreduced[0], gf.den) != poly.mul(gf.num, gf.unreduced[1]):
                problems.append(f"band m={m} M={M}: P Q_red != P_red Q")
    scope = f"n<={n_top}, |k|<={k_top}, bands n<={band_top}"
    return not problems, "; ".join(problems[:4]) or scope


# -- criterion 4: bijection round trips ---------------------------------------


def check_bijections(level: str = "quick") -> tuple[bool, str]:
    weight_top = 14 if level == "full" else 9
    band_size_top = 16 if level == "full" else 12
    problems = []
    pairs = 0
    for n in range(weight_top + 1):
        for m in range(weight_top + 1 - n):
            for pair in bijections.composition_pairs(n, m):
                pairs += 1
                path = bijections.pair_to_path(pair)
                if path.size != n + m or path.altitude != m - n:
                    problems.append(f"size/altitude bookkeeping {pair}")
                if path.steps and path.steps[0].direction != UP:
                    problems.append(f"rising image starts down: {pair}")
                if not path.is_zigzag():
                    problems.append(f"image not zigzag: {pair}")
                if bijections.path_to_pair(path) != pair:
                    problems.append(f"rising round trip failed: {pair}")
                mirror = bijections.pair_to_path_falling(pair)
                if mirror.steps and mirror.steps[0].direction != DOWN:
                    problems.append(f"falling image starts up: {pair}")
                if bijections.path_to_pair_falling(mirror) != pair:
                    problems.append(f"falling round trip failed: {pair}")
    # image counts match the one-sided closed form
    for n in range(0, weight_top + 1):
        for k in range(-n, n + 1):
            if (n - k) % 2:
                continue
            images = {
                bijections.pair_to_path(p).steps
                for p in bijections.composition_pairs((n - k) // 2, (n + k) // 2)
            }
            want = closedforms.zigzag_count_one_sided(n, k)
            if len(images) != want:
                problems.append(f"image count ({n},{k}): {len(images)} != {want}")
    # narrow band: round trip over every qualifying path
    band = _zigzag(min_y=-1, max_y=1)
    for size in range(4, band_size_top + 1, 2):
        for path in counting.generate(size, band):
            if path.altitude != 0 or path.steps[0] is not Step.E:
                continue
            comp = bijections.narrow_band_composition(path)
            if bijections.narrow_band_path(comp) != path:
                problems.append(f"band round trip failed at size {size}")
            if 2 * comp.total + 4 != size:
                problems.append(f"band size bookkeeping at size {size}")
    return not problems, "; ".join(problems[:4]) or f"{pairs} pairs round-tripped"


# -- criterion 5: kernel certificates -----------------------------------------


# The zigzag kernel z^3 r^2 + (z^4 + z^2 - 1) r + z^3, as a polynomial
# sum_i c_i(z) r^i in the same layout as the grand equations in
# `recurrences`: it vanishes at the small root.
_ZIGZAG_KERNEL = ((0, 0, 0, 1), (-1, 0, 1, 0, 1), (0, 0, 0, 1))


def _residual(equation, row: list[int]) -> list[int]:
    """sum_i c_i(z) row^i mod z^len(row), trimmed: [] when row solves equation."""
    n = len(row)
    total, power = [], [1]
    for c in equation:
        total = poly.add(total, poly.mul(c, power)[:n])
        power = poly.mul(power, row)[:n]
    return total


def _next_power(alpha: int, count: int) -> list[int]:
    """r^alpha from r^(alpha - 1) by the kernel step of `recurrences`."""
    return recurrences._root_powers(alpha - 1, count)[1]


def check_kernel_certificates(level: str = "quick") -> tuple[bool, str]:
    """The answering rows against their committed equations.

    The grand axis and altitude-sum rows come from P-recurrences; each must
    solve its algebraic equation mod z^50.  That pins every term of the
    axis row below 50 and of the altitude-sum row below 48 (the equation's
    derivative there has valuation 2); a term that is off changes the
    residual.  The zigzag rows and series are all built on the small root,
    which is r^1 of the committed power recurrence: the root must solve the
    kernel.  The altitude and line rows read powers of the root: the power
    recurrence, unrolled at r^2, r^3 and r^7, and the step from r^j to
    r^(j + 1) at j = 2, 3 and 7 must give the powers of the root's row by
    integer products.  A row whose recurrence leaves a term fractional fails
    its certificate.
    """
    n = 50
    problems = []
    certificates = (
        ("grand axis row", recurrences._GRAND_AXIS_EQUATION, recurrences.grand_axis_row),
        (
            "grand altitude-sum row",
            recurrences._GRAND_ALTITUDE_SUM_EQUATION,
            recurrences.grand_altitude_sum_row,
        ),
        ("small zigzag root", _ZIGZAG_KERNEL, recurrences.small_root_coeffs),
    )
    rows = {}
    for label, equation, derive in certificates:
        try:
            rows[label] = derive(n)
        except ArithmeticError as exc:
            problems.append(f"{label}: {exc}")
            continue
        residual = _residual(equation, rows[label])
        if residual:
            low = next(i for i, c in enumerate(residual) if c)
            problems.append(f"{label}: equation fails at z^{low}")
    if "small zigzag root" not in rows:  # no powers to compare with
        return False, "; ".join(problems)
    root, powers = rows["small zigzag root"], [[1]]
    for _ in range(8):  # r^0, ..., r^8 by integer products
        powers.append((poly.mul(powers[-1], root) + [0] * n)[:n])
    derived = [(f"r^{a} power recurrence", a, recurrences._unroll_power) for a in (2, 3, 7)]
    derived += [(f"r^{a + 1} from r^{a}", a + 1, _next_power) for a in (2, 3, 7)]
    for label, alpha, derive in derived:
        try:
            row = derive(alpha, n)
        except ArithmeticError as exc:
            problems.append(f"{label}: {exc}")
            continue
        if row != powers[alpha]:
            low = next(i for i, (a, b) in enumerate(zip(row, powers[alpha])) if a != b)
            problems.append(f"{label}: differs from the product at z^{low}")
    return not problems, "; ".join(problems) or f"certificates zero to order {n}"


# -- criterion 6: threshold law ------------------------------------------------


def check_threshold_law(level: str = "quick") -> tuple[bool, str]:
    problems = []
    for m in range(1, 6):
        cutoff = 3 * m - 2
        free = counting.count_row(cutoff, ALL, _zigzag())
        bounded = counting.count_row(cutoff, ALL, _zigzag(min_y=-m))
        if free[:cutoff] != bounded[:cutoff]:
            problems.append(f"m={m}: rows differ before size {cutoff}")
        if free[cutoff] == bounded[cutoff]:
            problems.append(f"m={m}: rows agree at size {cutoff}")
        row = recurrences.above_line_row(m, cutoff + 1)
        rational = series.ZIGZAG_TOTAL_GF.expand(cutoff + 1)
        diff_val = next((i for i in range(cutoff + 1) if row[i] != rational[i]), None)
        if diff_val != cutoff:
            problems.append(f"m={m}: row difference valuation {diff_val} != {cutoff}")
        witness = Path(tuple([Step.NB, Step.E] * (m - 1) + [Step.NB]))
        if witness.size != cutoff or validate_path(witness, _zigzag(min_y=-m)):
            problems.append(f"m={m}: witness path check failed")
        if not validate_path(witness, _zigzag(min_y=-(m + 1))):
            problems.append(f"m={m}: witness should fit one line lower")
    return not problems, "; ".join(problems) or "thresholds 3m-2 for m=1..5"


# -- criterion 7: asymptotic gates ----------------------------------------------


def check_asymptotics(level: str = "quick") -> tuple[bool, str]:
    if level != "full":
        gates = [
            ("grand-all", None, [100], 0.01, False),
            ("grand-altitude-sum", None, [60], 0.05, False),
            ("expected-steps-even", None, [200], 0.02, False),
        ]
    else:
        gates = [
            ("grand-all", None, [200], 0.01, False),
            ("grand-nonneg", None, [200], 0.01, False),
            ("grand-altitude-sum", None, [500], 0.05, False),
            ("zigzag-expected-altitude", None, [500, 1000, 2000], 0.10, True),
            ("above-line-prob", 0, [500, 1000, 2000], 0.10, True),
            ("above-line-prob", 1, [500, 1000, 2000], 0.10, True),
            ("above-line-prob", 2, [500, 1000, 2000], 0.10, True),
            ("expected-steps-even", None, [2000], 0.02, False),
        ]
    problems = []
    details = []
    for formula, m, n_list, tol, need_decreasing in gates:
        report = asymptotics.convergence_report(formula, n_list, m=m)
        last = report.rows[-1]
        tag = formula if m is None else f"{formula}(m={m})"
        details.append(f"{tag}@{last.n}: {last.ratio:.4f}")
        if abs(last.ratio - 1.0) > tol:
            problems.append(
                f"{tag}: |{last.ratio:.4f} - 1| > {tol} at n={last.n}"
            )
        if need_decreasing and not report.tail_is_decreasing():
            problems.append(f"{tag}: |ratio - 1| not decreasing over {n_list}")
    return not problems, "; ".join(problems) or "; ".join(details)


# -- criterion 8: step-number refinement ----------------------------------------


def check_step_refinement(level: str = "quick") -> tuple[bool, str]:
    sum_top, triple_top = (14, 12) if level == "full" else (9, 8)
    problems = []
    for n in range(sum_top + 1):
        for k in range(-5, 6):
            if (n, k) == (0, 0):
                continue  # the empty path sits in both start classes at once
            total = sum(
                closedforms.zigzag_step_count(n, k, i, d)
                for i in range(n + 1)
                for d in (UP, DOWN)
            )
            want = closedforms.zigzag_count_closed(n, k)
            if total != want:
                problems.append(f"sum ({n},{k}): {total} != {want}")
    for first in (UP, DOWN):
        tables = counting.step_count_distributions(triple_top, _zigzag(first_dir=first))
        for n, table in enumerate(tables):
            if n == 0:
                continue  # the empty path has no first direction
            for k in range(-2 * n, 2 * n + 1):
                for i in range(n + 1):
                    formula = closedforms.zigzag_step_count(n, k, i, first)
                    dp = table.get((k, i), 0)
                    if formula != dp:
                        problems.append(
                            f"({n},{k},{i},{'up' if first == UP else 'down'}): "
                            f"formula={formula} dp={dp}"
                        )
    return not problems, "; ".join(problems[:4]) or f"triples to n<={triple_top}"


# -- criterion 9: tiling equinumerosity ------------------------------------------


def check_tiling(level: str = "quick") -> tuple[bool, str]:
    top = 10 if level == "full" else 7
    problems = []
    band = _zigzag(min_y=-1, max_y=1)
    axis_row = series.TUBE1_AXIS_GF.expand(2 * top + 5)
    dp_row = counting.count_row(2 * top + 4, 0, band)
    for n in range(top + 1):
        tiles = bijections.tiling_count(n)
        paths = dp_row[2 * n + 4]
        if 2 * tiles != paths:
            problems.append(f"n={n}: 2*{tiles} != {paths}")
        if 2 * tiles != axis_row[2 * n + 4]:
            problems.append(f"n={n}: tiling vs rational GF")
    return not problems, "; ".join(problems) or f"boards to 2x{2 * top}"


CHECKS: dict[str, Callable[[str], tuple[bool, str]]] = {
    "1-table-fixtures": check_table_fixtures,
    "2-sequence-fixtures": check_sequence_fixtures,
    "3-cross-engine": check_cross_engine,
    "4-bijections": check_bijections,
    "5-kernel-certificates": check_kernel_certificates,
    "6-threshold-law": check_threshold_law,
    "7-asymptotics": check_asymptotics,
    "8-step-refinement": check_step_refinement,
    "9-tiling": check_tiling,
}


def run_checks(level: str = "quick", only: str | None = None) -> Iterator[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError("level must be quick or full")
    for name, fn in CHECKS.items():
        if only is not None and only not in name:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(level)
        except Exception as exc:  # engine bugs surface as failures, not crashes
            passed, detail = False, f"exception: {exc!r}"
        yield CheckResult(name, passed, detail, time.perf_counter() - start)
