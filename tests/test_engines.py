"""The engine router: every engine that answers a query agrees with the DP."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightpaths import counting, engines, recurrences, transfer
from knightpaths.counting import ALL, NONNEG, CountQuery
from knightpaths.paths import DOWN, UP, PathConstraints, reach


@st.composite
def queries(draw):
    size = draw(st.integers(0, 30))
    # weighted toward the zigzag, unbounded classes, where the closed forms answer
    bounds = draw(st.sampled_from(["none", "none", "min", "max", "both"]))
    direction = st.sampled_from([None, None, UP, DOWN])
    c = PathConstraints(
        zigzag=draw(st.sampled_from([True, True, False])),
        min_y=-draw(st.integers(0, 4)) if bounds in ("min", "both") else None,
        max_y=draw(st.integers(0, 4)) if bounds in ("max", "both") else None,
        # a path of size n has n/2..n steps: draw from there, so most counts are not 0
        steps=draw(st.one_of(st.none(), st.integers(max(1, (size + 1) // 2), max(1, size)))),
        first_dir=draw(direction),
        last_dir=draw(direction),
    )
    altitude = draw(st.one_of(st.sampled_from([ALL, NONNEG]), st.integers(-8, 8)))
    return CountQuery(size, altitude, c)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(queries())
def test_every_answering_engine_matches_the_dp(query):
    want = counting.count(query)
    for engine in engines.ENGINES:
        got = engines.count(query, engine)
        assert got is None or got == want, engine


def test_unknown_engine_raises():
    with pytest.raises(ValueError, match="unknown engine"):
        engines.count(CountQuery(3), "abacus")


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("nonsense", {}, "unknown gf name 'nonsense'"),
        ("grand-altitude", {}, "gf 'grand-altitude' needs --k"),
        ("tube", {"m": 1}, "gf 'tube' needs --M"),
        ("sym-tube", {"m": 0}, "m must be >= 1"),
        ("tube-axis", {"M": 0}, "M must be >= 1"),
    ],
)
def test_gf_row_rejects_bad_names_and_parameters(name, params, message):
    with pytest.raises(ValueError, match=message):
        engines.gf_row(name, 5, **params)


# -- bounds past every path's reach ----------------------------------------------
#
# No path of size n leaves [-r, r], r = reach(n), so a bound past r never
# binds.  The gf routes move such a bound in to r, so their cost is bounded by
# the size.  Each spy refuses a bound past the reach before any work is done.

HUGE = 10**6


@pytest.mark.parametrize("bound", [{"min_y": -HUGE}, {"max_y": HUGE}])
def test_gf_count_moves_a_line_past_the_reach_in(monkeypatch, bound):
    row = recurrences.above_line_row

    def within_reach(m, count):
        assert m <= reach(count - 1, True), (m, count)
        return row(m, count)

    monkeypatch.setattr(recurrences, "above_line_row", within_reach)
    c = PathConstraints(zigzag=True, **bound)
    got = [engines.count(CountQuery(n, ALL, c), "gf") for n in range(41)]
    assert got == counting.count_row(40, ALL, c)


@pytest.mark.parametrize(
    "name, params, lo, hi, altitude",
    [
        ("tube", {"m": 1, "M": HUGE}, -1, HUGE, ALL),
        ("sym-tube", {"m": HUGE}, -HUGE, HUGE, ALL),
        ("tube-axis", {"M": HUGE}, 0, HUGE, 0),
    ],
)
def test_band_rows_move_a_side_past_the_reach_in(monkeypatch, name, params, lo, hi, altitude):
    band_gf, r = transfer.band_gf, reach(29, True)

    def within_reach(c, altitude=ALL):
        assert -r <= c.min_y and c.max_y <= r, (c.min_y, c.max_y)
        return band_gf(c, altitude)

    monkeypatch.setattr(transfer, "band_gf", within_reach)
    c = PathConstraints(zigzag=True, min_y=lo, max_y=hi)
    assert engines.gf_row(name, 30, **params) == counting.count_row(29, altitude, c)


@pytest.mark.parametrize("zigzag", [True, False])
def test_a_band_no_path_reaches_counts_as_unbounded(monkeypatch, zigzag):
    calls = []
    band_gf = transfer.band_gf

    def spy(c, altitude=ALL):
        calls.append(c)
        return band_gf(c, altitude)

    monkeypatch.setattr(transfer, "band_gf", spy)
    for size in (0, 1, 7, 30):
        r = reach(size, zigzag)
        for lo, hi in ((-100, 100), (-r, r)):
            c = PathConstraints(zigzag=zigzag, min_y=lo, max_y=hi)
            for altitude in (ALL, NONNEG, 0, 3):
                q = CountQuery(size, altitude, c)
                assert engines.count(q, "gf") == counting.count(q), (size, lo, altitude)
    assert not calls
    # a direction keeps the band on the transfer engine
    c = PathConstraints(zigzag=zigzag, min_y=-100, max_y=100, first_dir=UP)
    q = CountQuery(7, ALL, c)
    assert engines.count(q, "gf") == counting.count(q)
    assert len(calls) == 1
