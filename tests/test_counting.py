"""DP counting engine against known values and exhaustive generation."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightpaths import closedforms, counting, fixtures, recurrences, series, transfer
from knightpaths.counting import (
    ALL,
    ANY,
    NONNEG,
    CountQuery,
    _final,
    _floor,
    _joined,
    _select,
    _tally,
    altitude_distribution,
    count,
    count_paths,
    count_primitive,
    count_row,
    generate,
    grand_row_stats,
    step_count_distribution,
)
from knightpaths.paths import (
    DOWN,
    STEP_ORDER,
    UP,
    Path,
    PathConstraints,
    parse_path,
    reach,
    validate_path,
)

ZZ = PathConstraints(zigzag=True)


def test_known_single_counts():
    assert count_paths(4, 0) == 8
    assert count_paths(7, 0, ZZ) == 6
    assert count_paths(0, 0, PathConstraints(zigzag=True, min_y=-1, max_y=1)) == 1
    assert count_paths(15, 4, ZZ) == 85


def test_grand_table():
    for n in range(10):
        dist = altitude_distribution(n, PathConstraints())
        for k in range(10):
            assert dist.get(k, 0) == fixtures.GRAND_TABLE[n][k], (n, k)


def test_zigzag_table():
    for n in range(16):
        dist = altitude_distribution(n, ZZ)
        for k in range(5):
            assert dist.get(k, 0) == fixtures.ZIGZAG_TABLE[k][n], (n, k)


def test_count_rows_match_fixtures():
    assert count_row(16, ALL, ZZ) == list(fixtures.SEQUENCES["zigzag-total"].terms)
    assert count_row(12, NONNEG) == list(fixtures.SEQUENCES["grand-nonneg"].terms)
    assert count_row(7, ALL, PathConstraints(zigzag=True, min_y=-2)) == [
        1,
        2,
        4,
        6,
        9,
        15,
        23,
        38,
    ]


def test_empty_size_counts_one():
    for c in (PathConstraints(), ZZ, PathConstraints(zigzag=True, min_y=-3, max_y=2)):
        assert count_paths(0, 0, c) == 1
        assert count_paths(0, ALL, c) == 1
    # filters the empty path cannot meet
    assert count_paths(0, ALL, PathConstraints(first_dir=UP)) == 0
    assert count_paths(0, ALL, PathConstraints(steps=1)) == 0


def test_symmetry_in_altitude():
    for n in range(12):
        for c in (PathConstraints(), ZZ, PathConstraints(zigzag=True, min_y=-2, max_y=2)):
            dist = altitude_distribution(n, c)
            for k in range(1, 2 * n + 1):
                assert dist.get(k, 0) == dist.get(-k, 0), (n, k, c)


def test_start_direction_split():
    # equal up/down start counts at matching parity, away from the origin case
    for n in range(1, 13):
        for k in range(-2 * n, 2 * n + 1):
            if (n - k) % 2:
                continue
            up = count_paths(n, k, PathConstraints(zigzag=True, first_dir=UP))
            down = count_paths(n, k, PathConstraints(zigzag=True, first_dir=DOWN))
            assert up == down, (n, k)


def test_total_equals_altitude_sum():
    for n in range(10):
        dist = altitude_distribution(n, ZZ)
        assert count_paths(n, ALL, ZZ) == sum(dist.values())


def test_generate_small_zigzag_axis(paths_of):
    got = {str(p) for p in paths_of(4, PathConstraints(zigzag=True))}
    axis = {str(p) for p in paths_of(4, ZZ) if p.altitude == 0}
    assert axis == {"N Nb N Nb", "Nb N Nb N", "E Eb", "Eb E"}
    assert len(got) == 10


def test_generate_length_matches_count(paths_of):
    grids = [
        PathConstraints(),
        ZZ,
        PathConstraints(zigzag=True, min_y=-1, max_y=1),
        PathConstraints(zigzag=True, min_y=-2),
        PathConstraints(zigzag=True, first_dir=UP),
        PathConstraints(steps=3),
        PathConstraints(zigzag=True, last_dir=DOWN),
    ]
    for c in grids:
        for n in range(0, 13):
            paths = paths_of(n, c)
            assert len(paths) == count_paths(n, ALL, c), (n, c)
            assert len(set(paths)) == len(paths)
            for p in paths:
                assert p.size == n and validate_path(p, c)
    # lexicographic in step order
    from knightpaths.paths import STEP_ORDER

    paths = paths_of(6, ZZ)
    rank = {s: i for i, s in enumerate(STEP_ORDER)}
    assert list(paths) == sorted(paths, key=lambda p: [rank[s] for s in p.steps])


def test_generate_cap():
    with pytest.raises(ValueError):
        generate(21, ZZ)


def test_primitive_counts(paths_of):
    want = list(fixtures.SEQUENCES["zigzag-primitive"].terms)
    assert [count_primitive(n) for n in range(23)] == want
    assert count_primitive(9) == 2
    assert count_primitive(1) == 0
    # cross-check against exhaustive generation: axis paths whose interior
    # vertices avoid the axis
    for n in range(1, 15):
        brute = 0
        for p in paths_of(n, ZZ):
            if p.altitude != 0:
                continue
            interior = [y for (x, y) in p.vertices()[1:-1]]
            if all(y != 0 for y in interior):
                brute += 1
        assert count_primitive(n) == brute, n


def test_primitive_size_ten_paths(paths_of):
    brute = [
        p
        for p in paths_of(10, ZZ)
        if p.altitude == 0 and all(y != 0 for (x, y) in p.vertices()[1:-1])
    ]
    assert len(brute) == 6


def test_threshold_law():
    # every zigzag path of size <= 3m-3 stays above y=-m; at 3m-2 one escapes
    for m in range(1, 6):
        cutoff = 3 * m - 2
        free = count_row(cutoff, ALL, ZZ)
        bounded = count_row(cutoff, ALL, PathConstraints(zigzag=True, min_y=-m))
        assert free[:cutoff] == bounded[:cutoff], m
        assert free[cutoff] > bounded[cutoff], m
        witness = parse_path(" ".join(["Nb E"] * (m - 1) + ["Nb"]))
        assert witness.size == cutoff
        assert witness.min_height == -(m + 1)


def test_steps_filter_and_distribution():
    c = PathConstraints(zigzag=True, steps=2)
    assert count_paths(4, 0, c) == 2  # E Eb and Eb E
    dist = step_count_distribution(4, ZZ)
    assert dist[(0, 2)] == 2
    assert dist[(0, 4)] == 2  # N Nb N Nb and Nb N Nb N
    total = sum(v for (k, i), v in dist.items())
    assert total == count_paths(4, ALL, ZZ)


def test_count_query_validation():
    with pytest.raises(ValueError):
        CountQuery(-1)
    with pytest.raises(ValueError):
        CountQuery(3, "sideways")
    assert count(CountQuery(7, 0, ZZ)) == 6


def test_grand_row_stats_consistency():
    stats = grand_row_stats(12)
    assert stats["total"] == list(
        fixtures.SEQUENCES["grand-total"].terms
    ) + [49920, 136384]
    assert stats["nonneg"] == list(fixtures.SEQUENCES["grand-nonneg"].terms)
    assert stats["altitude_sum"] == list(fixtures.SEQUENCES["grand-altitude-sum"].terms)
    for n in range(13):
        assert stats["nonneg"][n] == stats["positive"][n] + stats["axis"][n]
        assert stats["total"][n] == 2 * stats["nonneg"][n] - stats["axis"][n]


directions = st.sampled_from([None, UP, DOWN])
constraints = st.builds(
    PathConstraints,
    zigzag=st.booleans(),
    min_y=st.none() | st.integers(-4, 0),
    max_y=st.none() | st.integers(0, 4),
    steps=st.none() | st.integers(1, 12),
    first_dir=directions,
    last_dir=directions,
)
altitudes = st.sampled_from([ALL, NONNEG]) | st.integers(-6, 6)


def _alt_ok(p: Path, altitude) -> bool:
    if altitude == ALL:
        return True
    if altitude == NONNEG:
        return p.altitude >= 0
    return p.altitude == altitude


@settings(derandomize=True, deadline=None, max_examples=60)
@given(constraints, st.integers(0, 12), altitudes)
def test_sweep_views_match_generation(paths_of, c, n_max, altitude):
    row = count_row(n_max, altitude, c)
    for k in range(n_max + 1):
        want = sum(_alt_ok(p, altitude) for p in paths_of(k, c))
        assert row[k] == count_paths(k, altitude, c) == want, (k, c, altitude)
    # step_count_distribution lists every step count, so compare it with
    # the paths the other filters keep
    table: dict[tuple[int, int], int] = {}
    for p in paths_of(n_max, replace(c, steps=None)):
        key = (p.altitude, p.step_count)
        table[key] = table.get(key, 0) + 1
    assert step_count_distribution(n_max, c) == table


def test_count_memory_stays_linear():
    tracemalloc.start()
    try:
        count_paths(300, NONNEG, ZZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_count_memory_shrinks_with_the_reach():
    # a zigzag column spans |y| <= (n + 5) // 3, not 4n + 1 cells, and a
    # nonneg count skips cells that cannot climb back above the axis
    tracemalloc.start()
    try:
        count_paths(600, NONNEG, ZZ)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200_000, peak


def test_zigzag_reach_is_tight(paths_of):
    for n in range(19):
        paths = paths_of(n, ZZ)
        highest = max(max(-p.min_height, p.height) for p in paths)
        assert highest <= reach(n, True) == min(2 * n, (n + 5) // 3), n
        if n % 3 == 1:
            assert max(abs(p.altitude) for p in paths) == reach(n, True), n


def test_reach_bounds_the_altitude_by_step_count(paths_of):
    for zigzag in (False, True):
        widest: dict[tuple[int, int], int] = {}
        for n in range(11):
            for p in paths_of(n, PathConstraints(zigzag=zigzag)):
                key = (n, p.step_count)
                widest[key] = max(widest.get(key, 0), abs(p.altitude))
        for (n, s), top in widest.items():
            assert top <= reach(n, zigzag, s), (zigzag, n, s)
            if not zigzag:
                assert top == reach(n, zigzag, s), (n, s)


@st.composite
def single_size_queries(draw):
    """A size, a longer row and a query whose end window can bite."""
    n_max = draw(st.integers(0, 40))
    n = draw(st.integers(0, n_max))
    # feasible step counts lie in [n / 2, n]; a few just outside them too
    steps = draw(st.none() | st.integers(max(1, n // 2 - 1), n + 1))
    zigzag = draw(st.booleans())
    c = PathConstraints(
        zigzag=zigzag,
        min_y=draw(st.none() | st.integers(-6, 0)),
        # lines at or below the top of the reach, which packed rows mask
        max_y=draw(st.none() | st.integers(0, 6) | st.integers(0, reach(n_max, zigzag))),
        steps=steps,
        first_dir=draw(directions),
        last_dir=draw(directions),
    )
    altitude = draw(st.sampled_from([ALL, NONNEG]) | st.integers(-8, 8))
    return n, n_max, altitude, c


@settings(derandomize=True, deadline=None, max_examples=150)
@given(single_size_queries())
def test_end_window_keeps_every_count(query):
    """count_paths skips prefixes that cannot end in the query; count_row,
    whose every column is an answer, extends them all."""
    n, n_max, altitude, c = query
    assert count_paths(n, altitude, c) == count_row(n_max, altitude, c)[n], query


@st.composite
def row_layout_queries(draw):
    """Queries weighted to the sweep's merged, mirrored and packed row layouts:
    bands symmetric about the axis, last_dir without first_dir, step counts,
    and lines at or below the top of the reach, which packed rows mask."""
    zigzag = draw(st.booleans())
    n_max = draw(st.integers(0, 14 if zigzag else 10))
    m = draw(st.none() | st.integers(0, 5))
    lo, hi = (None, None) if m is None else (-m, m)
    if draw(st.integers(0, 3)) == 0:  # now and then a one-sided or lopsided band
        lo = draw(st.none() | st.integers(-5, 0))
    if draw(st.integers(0, 3)) == 0:
        hi = draw(st.integers(0, reach(n_max, zigzag)))
    c = PathConstraints(
        zigzag=zigzag,
        min_y=lo,
        max_y=hi,
        steps=draw(st.none() | st.integers(max(1, n_max // 2 - 1), n_max + 1)),
        first_dir=draw(st.sampled_from([None, None, None, UP, DOWN])),
        last_dir=draw(directions),
    )
    altitude = draw(st.sampled_from([ALL, NONNEG]) | st.integers(-6, 6))
    return n_max, altitude, c


@settings(derandomize=True, deadline=None, max_examples=120)
@given(row_layout_queries())
def test_row_layouts_match_generation(paths_of, query):
    n_max, altitude, c = query
    row = count_row(n_max, altitude, c)
    for k in range(n_max + 1):
        want = sum(_alt_ok(p, altitude) for p in paths_of(k, c))
        assert row[k] == want, (k, query)
    assert count_paths(n_max, altitude, c) == row[n_max], query
    # end states carry the last direction where the sweep tracks it, and a
    # key no step direction and not the empty path's where it does not
    assert ANY not in (0, UP, DOWN)
    tracked = c.zigzag or c.last_dir is not None
    ends: dict[tuple[int, int | None], int] = {}
    steps: dict[tuple[int, int], int] = {}
    for p in paths_of(n_max, replace(c, steps=None)):
        key = (p.altitude, p.step_count)
        steps[key] = steps.get(key, 0) + 1
        if c.steps is None or p.step_count == c.steps:
            last = 0 if not p.steps else p.steps[-1].direction if tracked else ANY
            ends[p.altitude, last] = ends.get((p.altitude, last), 0) + 1
    assert _tally(_final(n_max, c), _floor(n_max, c), c, lambda y, d, used: (y, d)) == ends, query
    assert step_count_distribution(n_max, c) == steps, query
    if c.zigzag:
        # count_primitive clears the axis, a mirror-symmetric set
        brute = sum(
            p.altitude == 0 and all(y != 0 for (_, y) in p.vertices()[1:-1])
            for p in paths_of(n_max, ZZ)
        )
        assert count_primitive(n_max) == brute, n_max


def test_large_counts_match_independent_engines():
    n = 600
    assert count_paths(n, ALL, ZZ) == closedforms.zigzag_total_closed(n)
    assert count_paths(n, NONNEG, ZZ) == closedforms.zigzag_nonneg_closed(n)
    for k in (6, -6):
        assert count_paths(n, k, ZZ) == recurrences.zigzag_altitude_row(6, n + 1)[n], k
        assert count_paths(n, k, ZZ) == closedforms.zigzag_count_closed(n, k), k
    assert count_paths(200, ALL, PathConstraints()) == recurrences.grand_total_row(201)[200]
    band = PathConstraints(zigzag=True, min_y=-3, max_y=3)
    assert count_row(300, 1, band) == transfer.band_gf(band, 1).expand(301)


def test_middle_column_join_matches_the_full_sweep():
    # n = 0, 1 and 2 included: the rest of the path is empty, there is no
    # wide-step join, or the wide-step join starts at column 0
    for zigzag in (False, True):
        for n in range(19):
            for steps in (None, *range(1, n + 1)):
                c = PathConstraints(zigzag=zigzag, steps=steps)
                by_y = _tally(_final(n, c), _floor(n, c), c, lambda y, d, used: y)
                for altitude in (ALL, NONNEG, *range(-8, 9)):
                    want = _select(by_y, altitude)
                    assert count(CountQuery(n, altitude, c)) == want, (n, altitude, c)


def test_joined_pairs_cells_by_their_altitude_sum():
    a, b, z = [1, 2, 3], [5, 7, 11], 1  # cells i, j join at altitude i + j - 1
    pairs = [(i + j - z, a[i] * b[j]) for i in range(3) for j in range(3)]
    for altitude in (ALL, NONNEG, *range(-3, 6)):
        want = sum(n for y, n in pairs if _select({y: 1}, altitude))
        assert _joined(a, b, z, altitude) == want, altitude


def test_middle_column_join_at_bench_sizes():
    nonneg = recurrences.zigzag_nonneg_row(601)
    grand = series.GRAND_TOTAL_GF.expand(171)
    for n in (599, 600):
        assert count_paths(n, NONNEG, ZZ) == nonneg[n], n
    for n in (169, 170):
        assert count_paths(n, ALL) == grand[n], n
    for n in (400, 401):
        for k in (6, -6):
            assert count_paths(n, k, ZZ) == closedforms.zigzag_count_closed(n, k), (n, k)


def test_only_unbounded_counts_take_the_join(monkeypatch):
    sweep, ends = counting._sweep, []
    monkeypatch.setattr(
        counting, "_sweep", lambda n_max, *args, **kw: ends.append(n_max) or sweep(n_max, *args, **kw)
    )
    count_paths(9, NONNEG, zigzag=True, steps=6)
    count_paths(9, 1)
    for bound in (dict(min_y=-2), dict(max_y=2), dict(first_dir=UP), dict(last_dir=DOWN)):
        count_paths(9, 1, zigzag=True, **bound)
    count_row(9, ALL, ZZ)
    assert ends == [5, 5, 9, 9, 9, 9, 9]


def test_counts_that_read_no_altitude_at_bench_sizes():
    # each of these sweeps one cell per row; every engine it is checked
    # against here tracks the altitude
    total = recurrences.zigzag_total_row(601)
    for n in (599, 600):
        assert count_paths(n, ALL, ZZ) == total[n], n
    steps_queries = [(120, PathConstraints(zigzag=True, steps=96))]
    steps_queries += [(120, PathConstraints(zigzag=True, steps=96, last_dir=d)) for d in (UP, DOWN)]
    steps_queries += [(60, PathConstraints(steps=s)) for s in (30, 41, 52, 60)]
    steps_queries += [(60, PathConstraints(steps=45, last_dir=UP))]
    for n, c in steps_queries:
        dist = step_count_distribution(n, c)
        want = sum(m for (y, used), m in dist.items() if used == c.steps)
        assert count_paths(n, ALL, c) == want, (n, c)
    half = closedforms.zigzag_total_closed(200) // 2  # the up/down mirror
    for d in (UP, DOWN):
        assert count_paths(200, ALL, zigzag=True, first_dir=d) == half, d
        assert count_paths(200, ALL, zigzag=True, last_dir=d) == half, d


def test_only_counts_that_read_no_altitude_drop_it(monkeypatch):
    sweep, widths = counting._sweep, []

    def spy(*args, **kw):
        widths.append(counting._fields(*args, **kw).width)  # the cells of a row
        cols = sweep(*args, **kw)
        first = next(cols)
        fields = counting._fields(*args, **kw)
        assert len(fields.unpack(first, 0)[0, 0]) == widths[-1]  # the empty path's row
        yield first
        return (yield from cols)  # the paths the sweep retired

    monkeypatch.setattr(counting, "_sweep", spy)
    for c in (
        ZZ,
        PathConstraints(),
        PathConstraints(zigzag=True, steps=6),
        PathConstraints(steps=6),
        PathConstraints(zigzag=True, first_dir=UP),
        PathConstraints(zigzag=True, last_dir=DOWN),
        PathConstraints(last_dir=UP, steps=7),
    ):
        count_paths(9, ALL, c)
    count_row(9, ALL, ZZ)  # a row of sizes drops y as a count does
    count_row(9, ALL, PathConstraints(first_dir=UP))
    assert widths == [1] * 9
    widths.clear()
    count_paths(9, NONNEG, ZZ)
    count_paths(9, 1)
    count_paths(9, ALL, zigzag=True, min_y=-2)
    count_paths(9, ALL, max_y=2)
    count_paths(9, 0, zigzag=True, first_dir=UP)
    count_row(9, NONNEG, ZZ)
    altitude_distribution(9, ZZ)
    altitude_distribution(9, PathConstraints())
    step_count_distribution(9, ZZ)
    grand_row_stats(9)
    count_primitive(9)
    assert len(widths) == 11 and min(widths) > 1, widths


def test_a_steps_sweep_keeps_one_row_per_direction(monkeypatch):
    # a cell packs its counts by step count, so a column holds the empty
    # path's row and one row per last direction, whatever the step count
    sweep, rows = counting._sweep, []

    def spy(*args, **kw):
        cols = sweep(*args, **kw)
        while True:
            try:
                col = next(cols)
            except StopIteration as done:
                return done.value  # the paths the sweep retired
            rows.append(len(col))
            yield col

    monkeypatch.setattr(counting, "_sweep", spy)
    for steps in (62, 80, 96, 119):
        count_paths(120, -2, zigzag=True, steps=steps)  # the join
        count_paths(120, -2, zigzag=True, steps=steps, min_y=-3)  # the end window
    assert len(rows) == 4 * (61 + 121) and max(rows) <= 3, max(rows)


def test_a_zigzag_prefix_has_at_least_its_cells_origin_in_wide_steps(paths_of):
    # a packed cell starts at the least b its row and altitude allow, so
    # no prefix may have fewer wide steps than that
    for n in range(15):
        fields = counting._fields(n, ZZ, by_steps=True)
        least = {d: fields.origins(0, d) for d in (UP, DOWN)}
        for p in paths_of(n, ZZ):
            y = b = 0
            for s in p.steps:
                y, b = y + s.dy, b + (s.dx == 2)
                assert b >= least[s.direction][y - fields.lo], (p, y, b)


def test_packed_cells_hold_few_zero_fields():
    # packing every b from 0 up left 70% of the zigzag fields zero, and half
    # the grand ones: an altitude has the parity of its wide steps, and a
    # zigzag prefix needs about |y| of them
    for c, n in ((ZZ, 120), (PathConstraints(), 80)):
        fields = counting._fields(n, c, by_steps=True)
        for col in counting._sweep(n, c, by_steps=True):
            pass
        mask, packed = (1 << fields.bits) - 1, []
        for v in (v for row in col.values() for v in row if v):
            n_fields = -(-v.bit_length() // fields.bits)
            packed += [v >> f * fields.bits & mask for f in range(n_fields)]
        assert packed.count(0) < len(packed) / 10, (c, packed.count(0), len(packed))


def test_without_top_no_narrow_move_shifts_and_no_move_shifts_right():
    # the sweep makes no plan for a narrow move without top: a narrow step
    # keeps b and y's parity, and a zigzag row's bound at y is its
    # successor's at y +- 2
    moves = [(s.direction, s.dx, s.dy) for s in STEP_ORDER]
    for c in (ZZ, PathConstraints(), PathConstraints(zigzag=True, min_y=-2, max_y=5)):
        for n in (1, 2, 7, 40):
            fields = counting._fields(n, c, by_steps=True)
            for d in (UP, DOWN) if c.zigzag else (ANY,):
                for direction, dx, dy in moves:
                    if c.zigzag and d == direction:
                        continue
                    to = direction if c.zigzag else ANY
                    src, dst = fields.origins(0, d), fields.origins(0, to)
                    left, right, masks = fields.plan(src, dst, dx, dy, False, 0, fields.width)
                    assert right is None and masks is None, (c, n, d, direction, dx)
                    assert left is None or dx == 2, (c, n, d, direction, dx)


def test_grand_steps_counts_at_every_field_width():
    # s steps, n - s of them wide, in C(s, n - s) orders, each up or down;
    # the packed cells hold every step count of a row side by side
    for n in range(1, 41):
        for s in range(1, n + 1):
            assert count_paths(n, ALL, steps=s) == comb(s, n - s) * 2**s, (n, s)
    assert count_paths(2000, ALL, steps=1200) == comb(1200, 800) * 2**1200


def test_zigzag_steps_counts_match_the_closed_form_at_size_600():
    for d in (UP, DOWN):
        want = closedforms.zigzag_step_count(600, 2, 400, d)
        assert count_paths(600, 2, zigzag=True, steps=400, first_dir=d) == want, d
    both = sum(closedforms.zigzag_step_count(600, 2, 400, d) for d in (UP, DOWN))
    assert count_paths(600, 2, zigzag=True, steps=400) == both


def test_steps_counts_with_a_line_match_generation(paths_of):
    # the end window keeps only the step counts that can still end in the
    # query's, and no other engine counts a bounded zigzag query by steps
    bounds = (dict(min_y=0), dict(min_y=-2), dict(max_y=1), dict(min_y=-1, max_y=3))
    for n in range(19):
        for bound in bounds:
            c = PathConstraints(zigzag=True, **bound)
            table: dict[tuple[int, int], int] = {}
            for p in paths_of(n, ZZ):
                if validate_path(p, c):
                    key = (p.step_count, p.altitude)
                    table[key] = table.get(key, 0) + 1
            for s in range(max(1, n // 2), n + 2):
                for altitude in (ALL, NONNEG, 1, -2):
                    ends = {y: m for (used, y), m in table.items() if used == s}
                    want = _select(ends, altitude)
                    got = count_paths(n, altitude, replace(c, steps=s))
                    assert got == want, (n, bound, s, altitude)


@pytest.mark.parametrize(
    "c, kw",
    [
        (ZZ, {}),  # mirrored
        (PathConstraints(), {}),
        (PathConstraints(last_dir=UP), {}),
        (PathConstraints(zigzag=True, first_dir=DOWN), {}),  # not mirrored
        (PathConstraints(zigzag=True, steps=7), {}),  # mirrored, with steps
        (PathConstraints(steps=8), dict(end=ALL)),
        (PathConstraints(zigzag=True, min_y=-2, max_y=3), {}),  # a band
        (PathConstraints(zigzag=True, min_y=-2, max_y=2, steps=9), dict(end=1)),
        (PathConstraints(min_y=-1), dict(end=NONNEG)),
        (ZZ, dict(by_y=False)),
        (PathConstraints(steps=8), dict(by_y=False, end=ALL)),
        (PathConstraints(zigzag=True, last_dir=UP), dict(by_y=False)),
        (PathConstraints(zigzag=True, max_y=2), dict(end=-1)),  # packed, masked at the line
        (PathConstraints(zigzag=True, min_y=-2, max_y=2), dict(end=0)),  # a mirrored band: lists
    ],
)
def test_yielded_rows_are_their_own_lists(c, kw):
    """A list row is a list of its own and a packed row an int in a column of
    its own, so a caller may clear cells of a yielded column in place, as
    primitive_row does."""
    fields = counting._fields(12, c, **kw)
    cols = list(counting._sweep(12, c, **kw))
    assert fields.packed == all(isinstance(row, int) for col in cols for row in col.values())
    for x, col in enumerate(cols):
        assert not any(col is earlier for earlier in cols[:x]), x
        for row in col.values() if not fields.packed else ():
            assert not any(row is old for earlier in cols[:x] for old in earlier.values()), x
    # clearing one column's cells changes no column already yielded after it
    later = [fields.unpack(col, x) for x, col in enumerate(cols)]
    for x, col in enumerate(cols):
        for d, row in col.items():
            if fields.packed:
                col[d] = 0
            else:
                row[:] = [0] * len(row)
        assert not any(any(row) for row in fields.unpack(col, x).values()), x
        assert [fields.unpack(col, y) for y, col in enumerate(cols)][x + 1 :] == later[x + 1 :], x


def _packed_columns(n_max, c):
    """Every column of a packed sweep, unpacked: as (y, steps) -> count."""
    fields = counting._fields(n_max, c)
    assert fields.packed
    for x, col in enumerate(counting._sweep(n_max, c)):
        yield _tally(fields.unpack(col, x), fields.lo, c, lambda y, d, used: y)


def test_packed_rows_widen_their_fields_at_every_size():
    # a packed sweep widens its fields as its columns grow (_Fields.field_bytes);
    # every column of these sweeps is read, so every widening is checked
    # against the rows of recurrences and the closed forms
    assert len({counting._fields(400, ZZ).field_bytes(x) for x in range(401)}) >= 4
    nonneg, six = recurrences.zigzag_nonneg_row(401), recurrences.zigzag_altitude_row(6, 401)
    for n, dist in enumerate(_packed_columns(400, ZZ)):
        assert _select(dist, NONNEG) == nonneg[n] and dist.get(-6, 0) == six[n], n
    above = recurrences.above_line_row(2, 401)
    for n, dist in enumerate(_packed_columns(400, PathConstraints(zigzag=True, min_y=-2))):
        assert sum(dist.values()) == above[n], n
    total, axis = recurrences.grand_total_row(201), recurrences.grand_axis_row(201)
    alt_sum = recurrences.grand_altitude_sum_row(201)
    for n, dist in enumerate(_packed_columns(200, PathConstraints())):
        assert sum(dist.values()) == total[n] and dist.get(0, 0) == axis[n], n
        assert sum(y * m for y, m in dist.items() if y > 0) == alt_sum[n], n
    # single sizes whose own field gains a byte, each swept to its size
    grand_2 = recurrences.grand_altitude_row(2, 201)
    for zigzag, n_max, row in ((True, 400, above), (False, 200, grand_2)):
        width = [counting._path_bytes(n, zigzag) for n in range(n_max + 1)]
        for n in [n for n in range(1, n_max + 1) if width[n] > width[n - 1]]:
            if zigzag:
                assert count_paths(n, ALL, zigzag=True, min_y=-2) == row[n], n
                assert count_paths(n, -5, zigzag=True) == closedforms.zigzag_count_closed(n, -5), n
            else:
                assert count_paths(n, 2) == row[n], n
    # the distributions read every cell, so they keep list rows; count_row
    # reads the packed rows, and agrees
    assert not counting._fields(400, ZZ, every=True).packed
    assert counting._fields(400, ZZ).packed and count_row(400, NONNEG, ZZ) == nonneg


def _first_size(c, n, packed, size_of=lambda n: n):
    """The least size from n up whose sweep packs its rows (or keeps lists)."""
    while counting._fields(size_of(n), c).packed != packed:
        n += 1
    return n


def test_sizes_on_both_sides_of_the_crossover():
    # below the crossover (PACKED_BYTES) the rows are packed, above it lists
    line = PathConstraints(zigzag=True, min_y=-2)
    n = _first_size(line, 1400, False)
    widths = counting._path_bytes(n - 1, True), counting._path_bytes(n, True)
    assert widths[0] <= counting.PACKED_BYTES < widths[1]
    above = recurrences.above_line_row(2, n + 1)
    for size in (n - 1, n):
        assert count_paths(size, ALL, line) == above[size], size
    # the join of an unbounded zigzag count, which list rows would mirror,
    # packs fields of 9 to PACKED_BYTES // 2 bytes
    half = lambda n: (n + 1) // 2  # noqa: E731
    low = _first_size(ZZ, 2, True, half)
    high = _first_size(ZZ, low, False, half)
    assert counting._path_bytes(half(low), True) == 9
    assert counting._path_bytes(half(high), True) > counting.PACKED_BYTES // 2
    assert not counting._fields(half(low - 2), ZZ).packed
    assert counting._fields(half(high - 2), ZZ).packed
    nonneg = recurrences.zigzag_nonneg_row(high + 1)
    for size in (low - 2, low, high - 2, high):
        assert count_paths(size, NONNEG, ZZ) == nonneg[size], size
    # a grand band with an altitude: the band engine checks both sides
    band = PathConstraints(min_y=-2, max_y=5)
    n = _first_size(band, 600, False)
    assert counting._fields(n - 1, band).packed
    row = transfer.band_gf(band, 1).expand(n + 1)
    for size in (n - 1, n):
        assert count_paths(size, 1, band) == row[size], size
    # a mirrored band keeps lists at every size
    mirrored = PathConstraints(zigzag=True, min_y=-3, max_y=3)
    assert not any(counting._fields(n, mirrored).packed for n in (20, 200))


def _window_by_hand(fields, x):
    """Column x's window and cut flag, worked out for that column alone."""
    r = reach(x, fields.zigzag) if fields.stride == 2 else 0
    back = reach(fields.size - x, fields.zigzag)
    ylo, yhi = -r, r
    if isinstance(fields.end, int):
        ylo, yhi = max(ylo, fields.end - back), min(yhi, fields.end + back)
    elif fields.end == NONNEG:
        ylo = max(ylo, -back)
    i0, i1 = max(0, ylo - fields.lo), min(fields.width, yhi - fields.lo + 1)
    if fields.retire is not None and x > 0:  # the cells that can still reach the line
        i1 = max(i0, min(i1, fields.retire + back - fields.lo))
    return i0, i1, i1 < r - fields.lo + 1


@pytest.mark.parametrize("zigzag", [True, False])
@pytest.mark.parametrize(
    "bounds",
    [{}, dict(min_y=-2), dict(min_y=0), dict(min_y=-60), dict(max_y=3), dict(min_y=-2, max_y=3)],
)
def test_the_plan_is_every_columns_window(zigzag, bounds):
    # the plan (_Fields.columns) is the only window code where top is None,
    # so a reference worked column by column checks it
    c = PathConstraints(zigzag=zigzag, **bounds)
    line = list(bounds) == ["min_y"]
    for n in (0, 1, 2, 7, 30, 250 if zigzag else 100):
        for end in (None, ALL, NONNEG, 0, 3, -5):
            for retire in (False, True):
                fields = counting._fields(n, c, end=end, retire=retire)
                spans, widths = fields.columns()
                assert spans[n + 1 :] == [(0, 0, False)] * 2
                for x in range(n + 1):
                    assert spans[x] == _window_by_hand(fields, x), (n, end, retire, x)
                    assert fields.window(x) == spans[x][:2], (n, end, retire, x)
                size = fields.field_bytes
                grows = [x for x in range(n + 1) if x == 0 or size(x) > size(x - 1)]
                assert widths == {x: size(x) for x in grows}, (n, end)
                # retirement takes a line alone, ALL or NONNEG, and wide fields
                wide = counting._path_bytes(n, zigzag) > counting.RETIRE_BYTES
                retires = retire and line and end in (None, ALL, NONNEG) and wide
                floor = 0 if end == NONNEG else c.min_y
                assert fields.retire == (floor if retires else None), (n, end, retire)
    if not bounds:  # a row without y is one cell at y = 0, and never widens
        fields = counting._fields(40, c, by_y=False)
        spans = [(0, 1, False)] * 41 + [(0, 0, False)] * 2
        assert fields.columns() == (spans, {0: fields.field_bytes(0)})


def test_retiring_counts_match_generation(paths_of, monkeypatch):
    # every sweep here retires, so small sizes check the rule itself: the
    # empty path stays, lines no path reaches retire whole columns, and the
    # completions count from size 0
    monkeypatch.setattr(counting, "RETIRE_BYTES", 0)
    for zigzag, sizes in ((True, range(15)), (False, range(11))):
        line = PathConstraints(zigzag=zigzag, min_y=-1)
        assert counting._fields(1, line, retire=True).retire == -1
        for n in sizes:
            paths = paths_of(n, PathConstraints(zigzag=zigzag))
            firsts = [p.steps[0].direction if p.steps else 0 for p in paths]
            ends = [(p.min_height, p.altitude, d) for p, d in zip(paths, firsts)]
            for m in (0, 1, 2, 5, 30):
                for first in (None, UP, DOWN):
                    c = PathConstraints(zigzag=zigzag, min_y=-m, first_dir=first)
                    kept = [y for low, y, d in ends if low >= -m and first in (None, d)]
                    assert count_paths(n, ALL, c) == len(kept), (n, c)
                    assert count_paths(n, NONNEG, c) == sum(y >= 0 for y in kept), (n, c)


def test_retiring_counts_match_the_list_rows():
    # the rows of the distributions are lists and retire nothing; each set's sizes
    # lie on both sides of RETIRE_BYTES
    sets = ((True, (100, 190, 200, 599, 1000)), (False, (40, 60, 90, 150, 300)))
    for zigzag, sizes in sets:
        bytes_ = [counting._path_bytes(n, zigzag) for n in sizes]
        assert min(bytes_) <= counting.RETIRE_BYTES < max(bytes_)
        for m in (0, 2, 60):
            for first in (None, UP):
                c = PathConstraints(zigzag=zigzag, min_y=-m, first_dir=first)
                fields = counting._fields(sizes[-1], c, every=True)
                for x, col in enumerate(counting._sweep(sizes[-1], c, every=True)):
                    if x in sizes:
                        dist = _tally(fields.unpack(col, x), fields.lo, c, lambda y, d, used: y)
                        for altitude in (ALL, NONNEG):
                            want = _select(dist, altitude)
                            assert count_paths(x, altitude, c) == want, (x, altitude, c)


def test_a_packed_count_plans_its_windows_once(monkeypatch):
    # the packed sweep reads its plan; only the caller's unpacking asks
    # _Fields.window, once per column it reads
    window, calls = counting._Fields.window, []
    spy = lambda self, x: calls.append(x) or window(self, x)  # noqa: E731
    monkeypatch.setattr(counting._Fields, "window", spy)
    line, grand = PathConstraints(zigzag=True, min_y=-2), PathConstraints(min_y=-3)
    for n, altitude, c in ((600, ALL, line), (600, NONNEG, line), (400, 6, ZZ), (300, ALL, grand)):
        assert counting._fields(n, c, end=altitude).packed
        calls.clear()
        count_paths(n, altitude, c)
        assert len(calls) <= 4, (n, altitude, c, len(calls))


# -- rows of sizes from one sweep ------------------------------------------------

ROW_BOUNDS = [{}, dict(min_y=-2), dict(min_y=0), dict(max_y=3), dict(min_y=-1, max_y=2)]
ROW_DIRECTIONS = [{}, dict(first_dir=UP), dict(last_dir=DOWN), dict(first_dir=DOWN, last_dir=UP)]
ROW_ALTITUDES = (ALL, NONNEG, 0, 1, -2, 3, -7, 30)  # the last two lie outside some windows


@pytest.mark.parametrize("zigzag", [True, False])
def test_count_row_reads_packed_and_list_rows_as_generation(paths_of, monkeypatch, zigzag):
    # count_row reads one number per column, folded from a packed row or
    # summed over a list row's slice; both layouts against generation
    top = 12 if zigzag else 9
    free = [paths_of(n, PathConstraints(zigzag=zigzag)) for n in range(top + 1)]
    for bounds in ROW_BOUNDS:
        for dirs in ROW_DIRECTIONS:
            c = PathConstraints(zigzag=zigzag, **bounds, **dirs)
            kept = [[p for p in paths if validate_path(p, c)] for paths in free]
            for altitude in ROW_ALTITUDES:
                want = [sum(_alt_ok(p, altitude) for p in paths) for paths in kept]
                assert count_row(top, altitude, c) == want, (c, altitude)
                assert count_row(0, altitude, c) == want[:1], (c, altitude)
                with monkeypatch.context() as m:  # list rows, but for rows of one cell
                    m.setattr(counting, "PACKED_BYTES", 0)
                    assert count_row(top, altitude, c) == want, (c, altitude)


def _distribution_row(n_max, altitude, c):
    """count_row by the distributions, which read every cell of every column."""
    return [_select(dist, altitude) for dist in counting.altitude_distributions(n_max, c)]


def test_count_row_on_both_sides_of_the_packed_widths():
    # a line's rows pack up to PACKED_BYTES, an unbounded zigzag sweep's (which
    # list rows mirror) from 9 to PACKED_BYTES // 2 bytes
    line = PathConstraints(zigzag=True, min_y=-2)
    n = _first_size(line, 1400, False)
    above = recurrences.above_line_row(2, n + 1)
    assert counting._fields(n - 1, line).packed
    assert count_row(n - 1, ALL, line) == above[:n] and count_row(n, ALL, line) == above
    low = _first_size(ZZ, 2, True)
    high = _first_size(ZZ, low, False)
    assert counting._path_bytes(low, True) == 9
    assert counting._path_bytes(high, True) > counting.PACKED_BYTES // 2
    nonneg = recurrences.zigzag_nonneg_row(high + 1)
    six = recurrences.zigzag_altitude_row(6, high + 1)
    for size in (low - 1, low, high - 1, high):
        assert count_row(size, NONNEG, ZZ) == nonneg[: size + 1], size
        assert count_row(size, -6, ZZ) == six[: size + 1], size
    # a grand band, and a directed zigzag line, against the distributions
    band = PathConstraints(min_y=-2, max_y=5)
    n = _first_size(band, 600, False)
    row = transfer.band_gf(band, 1).expand(n + 1)
    assert count_row(n - 1, 1, band) == row[:n] and count_row(n, 1, band) == row
    directed = PathConstraints(zigzag=True, min_y=-3, first_dir=UP, last_dir=DOWN)
    for altitude in (ALL, NONNEG, 2):
        assert count_row(200, altitude, directed) == _distribution_row(200, altitude, directed)


def test_count_row_with_steps_reads_the_distributions(paths_of):
    directed = PathConstraints(steps=4, min_y=-1, first_dir=UP)
    for c in (PathConstraints(zigzag=True, steps=5), directed):
        for altitude in (ALL, NONNEG, 1):
            want = [sum(_alt_ok(p, altitude) for p in paths_of(n, c)) for n in range(10)]
            assert count_row(9, altitude, c) == want, (c, altitude)
    with pytest.raises(ValueError):
        count_row(-1, ALL, ZZ)
    with pytest.raises(ValueError):
        count_row(3, "some", ZZ)


def test_primitive_row_is_every_primitive_count(paths_of):
    row = counting.primitive_row(40)
    assert row == [count_primitive(n) for n in range(41)]
    assert row[:23] == list(fixtures.SEQUENCES["zigzag-primitive"].terms)
    assert counting.primitive_row(0) == [1] and counting.primitive_row(1) == [1, 0]
    for n in range(1, 13):
        brute = sum(
            p.altitude == 0 and all(y != 0 for (x, y) in p.vertices()[1:-1])
            for p in paths_of(n, ZZ)
        )
        assert row[n] == brute, n
    with pytest.raises(ValueError):
        counting.primitive_row(-1)


@pytest.mark.parametrize(
    "c",
    [
        ZZ,
        PathConstraints(zigzag=True, first_dir=UP),
        PathConstraints(zigzag=True, first_dir=DOWN, min_y=-2),
        PathConstraints(zigzag=True, last_dir=UP, max_y=3, steps=4),  # steps is ignored
        PathConstraints(),
        PathConstraints(min_y=-1, max_y=2, first_dir=UP),
    ],
)
def test_step_count_rows_are_every_size_distribution(c):
    for n_max in (0, 1, 14):
        rows = list(counting.step_count_distributions(n_max, c))
        assert rows == [step_count_distribution(n, c) for n in range(n_max + 1)], n_max
    with pytest.raises(ValueError):
        next(counting.step_count_distributions(-1, c))


@pytest.mark.parametrize("zigzag", [True, False])
def test_a_line_no_path_crosses_counts_as_none(paths_of, monkeypatch, zigzag):
    # without a direction filter, a count whose lines lie past the reach
    # takes the unbounded route; it equals the sweep that keeps the line
    joins = []
    join = counting._join
    monkeypatch.setattr(counting, "_join", lambda *a: joins.append(a) or join(*a))
    for n in (0, 1, 4, 9, 40):
        r = reach(n, zigzag)
        lines = [dict(min_y=-r), dict(min_y=-r - 1), dict(max_y=r + 3), dict(min_y=-r, max_y=r)]
        reachable = [dict(min_y=-r + 1), dict(max_y=r - 1), dict(min_y=-r - 2, max_y=r - 1)]
        for bounds in lines + reachable:
            if bounds.get("min_y", 0) > 0 or bounds.get("max_y", 0) < 0:
                continue  # no such line at size 0
            for steps in (None, n - n // 3 or None):
                c = PathConstraints(zigzag=zigzag, steps=steps, **bounds)
                free = paths_of(n, PathConstraints(zigzag=zigzag)) if n <= 9 else ()
                kept_paths = [p for p in free if validate_path(p, c)]
                for altitude in (ALL, NONNEG, 0, -1):
                    joins.clear()
                    got = count_paths(n, altitude, c)
                    assert bool(joins) == (bounds in lines), (n, bounds)
                    with monkeypatch.context() as m:
                        m.setattr(counting, "_out_of_reach", lambda size, c: False)
                        kept = count_paths(n, altitude, c)
                    assert got == kept, (n, bounds, steps, altitude)
                    if n <= 9:
                        want = sum(_alt_ok(p, altitude) for p in kept_paths)
                        assert got == want, (n, bounds, steps, altitude)
    # a directed count keeps its line, which it retires against
    c = PathConstraints(zigzag=zigzag, min_y=-reach(30, zigzag), first_dir=UP)
    joins.clear()
    assert count_paths(30, NONNEG, c) == count_paths(30, NONNEG, replace(c, min_y=None))
    assert not joins
