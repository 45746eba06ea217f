"""Which engine answers a query: the one router over the counting engines.

count(query, engine) asks one engine for a count: "dp" (counting, which
covers every query), "gf" (exact rows of generating functions) or "closed"
(binomial sums).  An engine that does not cover the query returns None, so
`count --engine all` prints exactly the engines listed here for it.

GF_ROWS is the table behind `gf --name`: each name's coefficient row and
the engine that computes it.
"""

from __future__ import annotations

from dataclasses import replace

from . import closedforms, counting, recurrences, series, transfer
from .counting import CountQuery
from .paths import ALL, DOWN, NONNEG, UP, PathConstraints, reach

ENGINES = ("dp", "gf", "closed")


def count(query: CountQuery, engine: str) -> int | None:
    """The query's count from one engine, or None when it does not cover the query."""
    if engine == "dp":
        return counting.count(query)
    if engine == "gf":
        return _gf_count(query)
    if engine == "closed":
        return _closed_count(query)
    raise ValueError(f"unknown engine {engine!r}")


def _gf_count(query: CountQuery) -> int | None:
    """Coefficient `size` of a generating function, or None when none applies.

    Two-sided bands go to the transfer-matrix engine, except one that no
    path of this size reaches and that sets no direction: it counts as
    unbounded.  The other queries read coefficient `size` of a rational
    generating function or of an exact row from `recurrences` (O(n) at any
    zigzag altitude or line, O(|k| n) for a grand altitude k), so no route
    expands a kernel-method series.
    """
    size, altitude, c = query.size, query.altitude, query.constraints
    order = size + 1
    if c.min_y is not None and c.max_y is not None and c.steps is None:
        c = _within_reach(c, size)
        r = reach(size, c.zigzag)
        if (c.min_y, c.max_y) != (-r, r) or c.first_dir is not None or c.last_dir is not None:
            return transfer.band_gf(c, altitude).expand(order)[size]
        c = replace(c, min_y=None, max_y=None)
    if c.steps is not None or c.first_dir is not None or c.last_dir is not None:
        return None
    bounded = c.min_y is not None or c.max_y is not None
    if not c.zigzag:
        if bounded:
            return None
        if altitude == ALL:
            return series.GRAND_TOTAL_GF.expand(order)[size]
        if altitude == NONNEG:
            return recurrences.grand_nonneg_row(order)[size]
        return recurrences.grand_altitude_row(altitude, order)[size]
    if not bounded:
        if altitude == ALL:
            return series.ZIGZAG_TOTAL_GF.expand(order)[size]
        if altitude == NONNEG:
            return recurrences.zigzag_nonneg_row(order)[size]
        return recurrences.zigzag_altitude_row(altitude, order)[size]
    if altitude != ALL:
        return None
    # one bound only: staying above -m and staying below +m are mirror images
    c = _within_reach(c, size)
    m = -c.min_y if c.min_y is not None else c.max_y
    return recurrences.above_line_row(m, order)[size]


def _within_reach(c: PathConstraints, size: int) -> PathConstraints:
    """c with its line bounds moved in to [-r, r], r = reach(size).

    No path of this size or less leaves [-r, r], so a bound past r never
    binds, and the cost of a band or a line is bounded by the size.
    """
    r = max(reach(size, c.zigzag), 0)
    lo = None if c.min_y is None else max(c.min_y, -r)
    hi = None if c.max_y is None else min(c.max_y, r)
    return replace(c, min_y=lo, max_y=hi)


def _closed_count(query: CountQuery) -> int | None:
    """A binomial-sum count, or None when no closed form applies.

    Without a line bound, reversing a path's steps keeps its size, altitude,
    step count and alternation and swaps its first and last directions, so
    `--last d` counts as `--first d`.
    """
    size, altitude, c = query.size, query.altitude, query.constraints
    if not c.zigzag or c.min_y is not None or c.max_y is not None:
        return None
    if c.first_dir is not None and c.last_dir is not None:
        return None
    first = c.last_dir if c.first_dir is None else c.first_dir
    dirs = (UP, DOWN) if first is None else (first,)
    if c.steps is not None:
        if isinstance(altitude, int):
            altitudes = (altitude,)
        else:
            top = reach(size, True, c.steps)
            altitudes = range(0 if altitude == NONNEG else -top, top + 1)
        return sum(
            closedforms.zigzag_step_count(size, k, c.steps, d) for k in altitudes for d in dirs
        )
    if first is not None:
        if altitude == NONNEG:
            return None  # a sum over every altitude and step count
        if size == 0:  # the empty path has no first step
            return 0
        if altitude == ALL:  # the up/down mirror halves the total
            return closedforms.zigzag_total_closed(size) // 2
        return sum(closedforms.zigzag_step_count(size, altitude, i, first) for i in range(size + 1))
    if altitude == ALL:
        return closedforms.zigzag_total_closed(size)
    if altitude == NONNEG:
        return closedforms.zigzag_nonneg_closed(size)
    return closedforms.zigzag_count_closed(size, altitude)


# -- named rows --------------------------------------------------------------------


def _band_row(n: int, lo: int, hi: int, altitude=ALL) -> list[int]:
    c = _within_reach(PathConstraints(zigzag=True, min_y=lo, max_y=hi), n - 1)
    return transfer.band_gf(c, altitude).expand(n)


def _tube(n: int, m: int, M: int) -> list[int]:
    series.check_band(m, M)
    return _band_row(n, -m, M)


def _positive(name: str, value: int) -> int:
    series.check_positive(name, value)
    return value


# name -> (n, need) -> the first n coefficients, where need("k") reads --k.
# The grand names and the zigzag names other than zigzag-nonneg read exact
# rows, O(n) at any zigzag --k or --m; zigzag-nonneg still expands the kernel
# series, the one name `series` answers.  The band names read the transfer
# engine, which takes any band; they accept only m <= M (series.check_band).
GF_ROWS = {
    "grand-total": lambda n, need: series.GRAND_TOTAL_GF.expand(n),
    "grand-nonneg": lambda n, need: recurrences.grand_nonneg_row(n),
    "grand-altitude-sum": lambda n, need: recurrences.grand_altitude_sum_row(n),
    "grand-altitude": lambda n, need: recurrences.grand_altitude_row(need("k"), n),
    "grand-axis": lambda n, need: recurrences.grand_axis_row(n),
    "zigzag-total": lambda n, need: series.ZIGZAG_TOTAL_GF.expand(n),
    "zigzag-nonneg": lambda n, need: series.int_coefficients(series.zigzag_nonneg_gf(n), n),
    "zigzag-axis": lambda n, need: recurrences.zigzag_altitude_row(0, n),
    "zigzag-altitude": lambda n, need: recurrences.zigzag_altitude_row(need("k"), n),
    "zigzag-primitive": lambda n, need: recurrences.zigzag_primitive_row(n),
    "above-line": lambda n, need: recurrences.above_line_row(_positive("m", need("m")), n),
    "sym-tube": lambda n, need: _tube(n, _positive("m", need("m")), need("m")),
    "tube": lambda n, need: _tube(n, need("m"), need("M")),
    "tube-axis": lambda n, need: _band_row(n, 0, _positive("M", need("M")), 0),
    "tube1-axis": lambda n, need: series.TUBE1_AXIS_GF.expand(n),
    "span-exact": lambda n, need: transfer.span_exact_row(need("k"), n),
}


def gf_row(
    name: str, order: int, k: int | None = None, m: int | None = None, M: int | None = None
) -> list[int]:
    """The first `order` coefficients of the named generating function.

    Raises ValueError for an unknown name, for a parameter the name needs
    and was not given, and for one outside the name's domain.
    """
    if name not in GF_ROWS:
        raise ValueError(f"unknown gf name {name!r}")
    params = {"k": k, "m": m, "M": M}

    def need(what: str) -> int:
        if params[what] is None:
            raise ValueError(f"gf {name!r} needs --{what}")
        return params[what]

    return GF_ROWS[name](order, need)
